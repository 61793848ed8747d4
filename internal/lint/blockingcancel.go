package lint

// blockingcancel machine-checks the scheduler-blocking contract of
// DESIGN.md §12: every blocking channel operation (and Cond.Wait) that a
// server or executor loop can reach must stay cancellable, or a drain
// wedges behind it. A site is audited when it repeats — it sits inside a
// loop span of its function (see loopSpans), or its function is reachable
// (via call edges and go spawns) from a call made inside a loop of an
// in-scope function; the composition of the loop spans with the call graph
// is what turns "this send blocks" into "this send can wedge a drain".
//
// An audited site is exempt when it has a shutdown edge:
//
//   - it is a select arm and a sibling arm receives from ctx.Done(), from a
//     channel the program provably closes, or the select has a default arm;
//   - it is a bare receive (or range) from a channel the program closes —
//     matched by variable identity first, then by element type as a
//     fallback for handoffs where the closing function holds the channel
//     under a different variable (the client's pending-response map);
//   - bare sends and Cond.Wait have no such witness and always report; the
//     engine's deliberately-unconditional error sends carry reasoned
//     //poplint:allow annotations citing their drain invariants.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BlockingCancelAnalyzer is the blocking-without-cancellation rule.
var BlockingCancelAnalyzer = &Analyzer{
	Name: "blockingcancel",
	Doc:  "blocking chan ops and Cond.Wait reachable from server/executor loops need a ctx.Done() arm or a close-based shutdown edge",
	Run:  runBlockingCancel,
}

var blockingCancelScope = []string{executorPath, serverPath}

func runBlockingCancel(prog *Program, report ReportFunc) {
	g := programGraph(prog)

	// Program-wide shutdown facts: which channel classes (and, as a
	// fallback, element types) some function closes.
	closedClasses := map[types.Object]bool{}
	closedElems := map[string]bool{}
	for _, fn := range g.Funcs {
		for _, op := range fn.Sum.ChanOps {
			if op.Kind == ChanClose && op.Class != nil {
				closedClasses[op.Class] = true
			}
		}
	}
	for _, pkg := range prog.Packages {
		if pkg.Info == nil {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				id, ok := unparen(call.Fun).(*ast.Ident)
				if !ok {
					return true
				}
				if b, ok := pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "close" {
					return true
				}
				if tv, ok := pkg.Info.Types[call.Args[0]]; ok && tv.Type != nil {
					if ch, ok := tv.Type.Underlying().(*types.Chan); ok {
						closedElems[types.TypeString(ch.Elem(), nil)] = true
					}
				}
				return true
			})
		}
	}

	loops := map[*FuncNode]loopSpanList{}
	for _, fn := range g.Funcs {
		if fn.Body != nil && inScope(fn.Pkg.Path, blockingCancelScope) {
			loops[fn] = loopSpans(fn.Body)
		}
	}
	loopReach := loopEnteredFuncs(g, loops)

	for _, fn := range g.sortedFuncs() {
		if fn.Body == nil || fn.Pkg.Info == nil || !inScope(fn.Pkg.Path, blockingCancelScope) {
			continue
		}
		a := &blockAudit{
			fn: fn, report: report,
			closedClasses: closedClasses, closedElems: closedElems,
			inLoopFn: loopReach[fn],
			loops:    loops[fn],
			comms:    selectComms(fn.Body),
		}
		a.run()
	}
}

// loopSpanList is the [Pos, End) source spans of one function body whose
// code repeats.
type loopSpanList [][2]token.Pos

// contains reports whether pos lies in some span.
func (l loopSpanList) contains(pos token.Pos) bool {
	for _, r := range l {
		if pos >= r[0] && pos < r[1] {
			return true
		}
	}
	return false
}

// loopSpans returns the spans of body that repeat: each for statement from
// the end of its init (which runs once) to its end, so its cond, post and
// body count; each range statement whole, operand included. Function
// literals are not descended into — each is its own FuncNode with its own
// spans. The mark is syntactic: a cycle formed only by goto is not a loop,
// and unreachable code inside a loop still counts.
func loopSpans(body *ast.BlockStmt) loopSpanList {
	var spans loopSpanList
	inspectShallow(body, func(n ast.Node) {
		switch s := n.(type) {
		case *ast.ForStmt:
			from := s.Pos()
			if s.Init != nil {
				from = s.Init.End()
			}
			spans = append(spans, [2]token.Pos{from, s.End()})
		case *ast.RangeStmt:
			spans = append(spans, [2]token.Pos{s.Pos(), s.End()})
		}
	})
	return spans
}

// loopEnteredFuncs computes the functions reachable from calls or spawns
// made inside loops of in-scope functions, by composing each function's
// loop spans with call-graph closure.
func loopEnteredFuncs(g *CallGraph, loops map[*FuncNode]loopSpanList) map[*FuncNode]bool {
	roots := map[*FuncNode]bool{}
	addRoot := func(fn *FuncNode) {
		if fn != nil && !roots[fn] {
			roots[fn] = true
		}
	}
	for _, fn := range g.Funcs {
		spans := loops[fn]
		if len(spans) == 0 {
			continue
		}
		for _, ev := range fn.Sum.Events {
			if ev.Kind == EvCall && spans.contains(ev.Pos) {
				for _, t := range ev.Targets {
					addRoot(t)
				}
			}
		}
		for _, sp := range g.Spawns {
			if sp.In == fn && spans.contains(sp.Pos) {
				addRoot(sp.Callee)
			}
		}
		// Literals defined inside the loop (worker closures) repeat too.
		for _, lit := range g.Funcs {
			if lit.Lit != nil && lit.Parent == fn && spans.contains(lit.Pos) {
				addRoot(lit)
			}
		}
	}
	// Closure over call edges and spawns: anything a loop-entered function
	// runs, repeats.
	reach := map[*FuncNode]bool{}
	var work []*FuncNode
	for _, fn := range g.Funcs { // deterministic seeding order
		if roots[fn] {
			reach[fn] = true
			work = append(work, fn)
		}
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		for _, c := range fn.calls {
			if !reach[c] {
				reach[c] = true
				work = append(work, c)
			}
		}
		for _, sp := range g.Spawns {
			if sp.In == fn && sp.Callee != nil && !reach[sp.Callee] {
				reach[sp.Callee] = true
				work = append(work, sp.Callee)
			}
		}
	}
	return reach
}

// selectComms maps each select communication statement to its SelectStmt,
// so the audit can tell a select arm from a bare operation.
func selectComms(body *ast.BlockStmt) map[ast.Stmt]*ast.SelectStmt {
	out := map[ast.Stmt]*ast.SelectStmt{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, cs := range sel.Body.List {
			if cc, ok := cs.(*ast.CommClause); ok && cc.Comm != nil {
				out[cc.Comm] = sel
			}
		}
		return true
	})
	return out
}

// blockAudit audits one function's blocking sites.
type blockAudit struct {
	fn            *FuncNode
	report        ReportFunc
	closedClasses map[types.Object]bool
	closedElems   map[string]bool
	inLoopFn      bool
	loops         loopSpanList
	comms         map[ast.Stmt]*ast.SelectStmt
}

// run audits every site of the body that repeats: all of them when the
// function is loop-entered, else those inside its loop spans. Function
// literals are their own FuncNodes and are audited on their own.
func (a *blockAudit) run() {
	ast.Inspect(a.fn.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); n == nil || isLit {
			return false
		}
		if !a.inLoopFn && !a.loops.contains(n.Pos()) {
			return true
		}
		return a.node(n)
	})
}

// node audits one repeating site and reports whether to descend into it. A
// select arm is judged by its select, not by the operation it holds.
func (a *blockAudit) node(n ast.Node) bool {
	if stmt, ok := n.(ast.Stmt); ok {
		if sel, isComm := a.comms[stmt]; isComm {
			if !a.selectHasCancelArm(sel) {
				op, pos := commOp(stmt)
				a.report(pos, "blocking %s in a select with no cancellation arm (ctx.Done(), closed channel, or default) — a drain can wedge here", op)
			}
			return false
		}
	}
	switch n := n.(type) {
	case *ast.SendStmt:
		a.report(n.Arrow, "unconditional channel send can block forever; wrap in a select with a ctx.Done() arm or document the shutdown edge")
	case *ast.UnaryExpr:
		if n.Op == token.ARROW && !a.chanHasCloseWitness(n.X) {
			a.report(n.OpPos, "unconditional receive from a channel the program never closes; add a ctx.Done() select arm or a close-based shutdown edge")
		}
	case *ast.RangeStmt:
		tv, ok := a.fn.Pkg.Info.Types[n.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && !a.chanHasCloseWitness(n.X) {
			a.report(n.For, "range over a channel the program never closes blocks forever; close it on shutdown or select with ctx.Done()")
		}
	case *ast.CallExpr:
		if isCondWait(a.fn.Pkg.Info, n) {
			a.report(n.Pos(), "Cond.Wait has no cancellation edge; a drain can wedge behind it — prefer a channel with a ctx.Done() select arm")
		}
	}
	return true
}

// selectHasCancelArm reports whether any arm of sel is a shutdown edge: a
// default clause, a receive from ctx.Done(), or a receive from a channel
// with a close witness.
func (a *blockAudit) selectHasCancelArm(sel *ast.SelectStmt) bool {
	for _, cs := range sel.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return true // default: the op cannot block
		}
		recv := commRecvExpr(cc.Comm)
		if recv == nil {
			continue
		}
		if isCtxDoneCall(a.fn.Pkg.Info, recv.X) {
			return true
		}
		if a.chanHasCloseWitness(recv.X) {
			return true
		}
	}
	return false
}

// chanHasCloseWitness reports whether the channel expression is provably
// closed somewhere: by variable/field identity, or (fallback) some channel
// of the same element type is closed — covering handoffs where closer and
// receiver hold the channel under different variables.
func (a *blockAudit) chanHasCloseWitness(ch ast.Expr) bool {
	w := &walker{pkg: a.fn.Pkg}
	if class, _ := w.classOf(ch); class != nil && a.closedClasses[class] {
		return true
	}
	if tv, ok := a.fn.Pkg.Info.Types[ch]; ok && tv.Type != nil {
		if c, ok := tv.Type.Underlying().(*types.Chan); ok {
			return a.closedElems[types.TypeString(c.Elem(), nil)]
		}
	}
	return false
}

// commOp describes a select communication for reporting.
func commOp(s ast.Stmt) (string, token.Pos) {
	switch s := s.(type) {
	case *ast.SendStmt:
		return "send", s.Arrow
	case *ast.ExprStmt:
		if u, ok := unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			return "receive", u.OpPos
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if u, ok := unparen(s.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				return "receive", u.OpPos
			}
		}
	}
	return "operation", s.Pos()
}

// commRecvExpr extracts the receive expression of a select comm, or nil for
// sends.
func commRecvExpr(s ast.Stmt) *ast.UnaryExpr {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if u, ok := unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			return u
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if u, ok := unparen(s.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				return u
			}
		}
	}
	return nil
}

// isCtxDoneCall matches ctx.Done() for a context.Context receiver.
func isCtxDoneCall(info *types.Info, e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	f, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && f.Pkg() != nil && f.Pkg().Path() == "context"
}

// isCondWait matches (*sync.Cond).Wait().
func isCondWait(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" {
		return false
	}
	f, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	pkgPath, typeName := methodRecv(f)
	return pkgPath == "sync" && typeName == "Cond"
}
