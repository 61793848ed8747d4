package lint

// batchescape machine-checks the batch-ownership contract of DESIGN.md §11:
// an ephemeral *executor.Batch — one returned by a child's NextBatch — is
// valid only until the next pull on the same producer, because
// its Rows alias a reusable slab. A value derived from such a batch (the
// batch pointer itself, its Rows slice, a schema.Row, or a pointer into a
// row's Datum storage) must therefore never reach a store that outlives the
// pull loop without passing through a deep copy (appendBatchRows, Clone, an
// element copy) or the sync.Pool transfer path (cloneForTransfer/getBatch,
// whose results are owned, not ephemeral).
//
// The rule runs a forward may-analysis over each function's CFG. Taint
// sources are "foreign" batches: results of calls returning *Batch other
// than the owned constructors (NewBatch, getBatch, cloneForTransfer),
// *Batch-typed field reads (n.held, be.buf, msg.batch), and channel
// receives. Taint propagates through assignment, .Rows, indexing, slicing,
// range, append, conversions, and Alloc on a tainted batch; it does NOT
// propagate through other calls (Clone/Concat return fresh storage) or
// through Datum element reads (Datum is a value type — copying an element
// is a deep copy). Escapes:
//
//   - a tainted row/slice assigned to a struct field, package variable,
//     pointer target, or an element of a persistent map/slice;
//   - a tainted slice accumulated across loop iterations (x = append(x, …)
//     inside a for/range — the next pull invalidates earlier iterations);
//   - a tainted value sent on a channel (transfer requires an owned clone);
//   - a tainted value captured by or passed to a go-spawned function;
//   - a tainted value passed to a parameter the callee persists (a small
//     interprocedural "retains" fixpoint over the call graph).
//
// Storing the *batch pointer itself* into a field is exempt: that is the
// held-batch idiom (gather recycling, join input cursors) where the field is overwritten before the next pull; the rule
// audits row-level aliases, which are the silent-corruption vector.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BatchEscapeAnalyzer is the batch-ownership escape rule.
var BatchEscapeAnalyzer = &Analyzer{
	Name: "batchescape",
	Doc:  "rows derived from an ephemeral *executor.Batch must not reach storage that outlives the pull loop without a deep copy",
	Run:  runBatchEscape,
}

var batchEscapeScope = []string{executorPath}

const (
	tBatch uint8 = 1 << iota // a foreign (ephemeral) *executor.Batch
	tRows                    // a []schema.Row aliasing a foreign batch
	tRow                     // a schema.Row (or pointer into one) aliasing a foreign batch
)

const schemaPath = "repro/internal/schema"

func runBatchEscape(prog *Program, report ReportFunc) {
	g := programGraph(prog)
	retains := computeBatchRetains(g)
	for _, fn := range g.sortedFuncs() {
		if fn.Body == nil || fn.Pkg.Info == nil || !inScope(fn.Pkg.Path, batchEscapeScope) {
			continue
		}
		s := &escapeScan{info: fn.Pkg.Info, retains: retains, reported: map[token.Pos]bool{}}
		cfg := g.FuncCFG(fn)
		ins := solveForwardMay(cfg, varFacts{}, func(b *CFGBlock, in varFacts) varFacts {
			s.block, s.report = b, nil
			for _, n := range b.Nodes {
				s.transferNode(n, in)
			}
			return in
		})
		// Replay each block from its solved in-state with reporting on.
		s.report = report
		for _, b := range cfg.Blocks {
			s.block = b
			facts := ins[b.Index].clone()
			for _, n := range b.Nodes {
				s.transferNode(n, facts)
			}
		}
	}
}

// escapeScan is the per-function analysis state shared by the solver pass
// (report == nil) and the reporting replay.
type escapeScan struct {
	info     *types.Info
	retains  map[*types.Var]bool
	block    *CFGBlock
	report   ReportFunc // nil during the fixpoint pass
	reported map[token.Pos]bool
}

func (s *escapeScan) reportOnce(pos token.Pos, format string, args ...any) {
	if s.report == nil || s.reported[pos] {
		return
	}
	s.reported[pos] = true
	s.report(pos, format, args...)
}

// transferNode applies one CFG node to facts, reporting escapes when the
// scan is in replay mode.
func (s *escapeScan) transferNode(n ast.Node, facts varFacts) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
			// Multi-value: b, err := pull(); v, ok := <-ch. The taint (if
			// any) is the first result's; type masks silence the rest.
			t := s.taintOf(n.Rhs[0], facts)
			s.checkCalls(n.Rhs[0], facts)
			for i, lhs := range n.Lhs {
				ti := uint8(0)
				if i == 0 {
					ti = t
				}
				s.assign(lhs, n.Rhs[0], ti, facts)
			}
			return
		}
		for i, lhs := range n.Lhs {
			var rhs ast.Expr
			var t uint8
			if i < len(n.Rhs) {
				rhs = n.Rhs[i]
				t = s.taintOf(rhs, facts)
				s.checkCalls(rhs, facts)
			}
			s.assign(lhs, rhs, t, facts)
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			multi := len(vs.Values) == 1 && len(vs.Names) > 1
			for i, name := range vs.Names {
				var rhs ast.Expr
				var t uint8
				switch {
				case multi:
					rhs = vs.Values[0]
					if i == 0 {
						t = s.taintOf(rhs, facts)
					}
				case i < len(vs.Values):
					rhs = vs.Values[i]
					t = s.taintOf(rhs, facts)
				}
				if rhs != nil && i == 0 {
					s.checkCalls(rhs, facts)
				}
				s.assign(name, rhs, t, facts)
			}
		}
	case *ast.RangeStmt:
		t := s.taintOf(n.X, facts)
		s.checkCalls(n.X, facts)
		if n.Value != nil {
			vt := uint8(0)
			if t&tRows != 0 {
				vt = tRow // ranging tainted rows binds aliasing row headers
			}
			s.assign(n.Value, n.X, vt, facts)
		}
	case *ast.SendStmt:
		if t := s.taintOf(n.Value, facts); t != 0 {
			s.reportOnce(n.Arrow, "channel send transfers %s aliasing an ephemeral batch; clone for transfer first (cloneForTransfer / appendBatchRows / Row.Clone)", taintNoun(t))
		}
		s.checkCalls(n.Value, facts)
	case *ast.GoStmt:
		s.checkGo(n, facts)
	case *ast.DeferStmt:
		s.checkCalls(n.Call, facts)
	case *ast.ExprStmt:
		s.checkCalls(n.X, facts)
	case *ast.ReturnStmt:
		// Returning tainted values is the pull contract itself (NextBatch
		// hands its caller an ephemeral batch); only nested calls matter.
		for _, r := range n.Results {
			s.checkCalls(r, facts)
		}
	case *ast.IfStmt, *ast.IncDecStmt, *ast.LabeledStmt, *ast.BranchStmt:
	case ast.Expr:
		// Branch-controlling expressions (conditions, switch tags).
		s.checkCalls(n, facts)
	}
}

// assign updates lhs's fact (strong update for plain locals) and reports
// persistent stores of tainted values.
func (s *escapeScan) assign(lhs, rhs ast.Expr, t uint8, facts varFacts) {
	s.checkStore(lhs, rhs, t, facts)
	id, ok := unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := s.objOf(id)
	if obj == nil || isPackageLevel(obj) {
		return
	}
	t &= taintMaskForType(obj.Type())
	if t == 0 {
		delete(facts, obj)
	} else {
		facts[obj] = t
	}
}

// checkStore reports tainted values reaching stores that outlive the pull
// loop, plus cross-iteration accumulation inside loops.
func (s *escapeScan) checkStore(lhs, rhs ast.Expr, t uint8, facts varFacts) {
	if s.report == nil {
		return
	}
	// x = append(x, tainted…) inside a loop: the accumulated rows from
	// earlier iterations are invalidated by the next pull.
	if call, ok := unparen(rhs).(*ast.CallExpr); ok && s.block.Loop && s.isAppend(call) && len(call.Args) > 1 {
		tainted := uint8(0)
		for _, a := range call.Args[1:] {
			tainted |= s.taintOf(a, facts) & (tRow | tRows)
		}
		if tainted != 0 && types.ExprString(unparen(lhs)) == types.ExprString(unparen(call.Args[0])) {
			s.reportOnce(lhs.Pos(), "%s accumulates rows aliasing an ephemeral batch across loop iterations; the next pull invalidates them — use appendBatchRows or copy the rows", types.ExprString(unparen(lhs)))
			return
		}
	}
	if t == 0 {
		return
	}
	rowBits := t & (tRow | tRows)
	switch l := unparen(lhs).(type) {
	case *ast.Ident:
		if obj := s.objOf(l); obj != nil && isPackageLevel(obj) {
			s.reportOnce(l.Pos(), "package variable %s retains %s aliasing an ephemeral batch; deep-copy before storing", l.Name, taintNoun(t))
		}
	case *ast.SelectorExpr:
		if pkgNameOf(s.info, l.X) != nil {
			s.reportOnce(l.Pos(), "package variable %s retains %s aliasing an ephemeral batch; deep-copy before storing", l.Sel.Name, taintNoun(t))
			return
		}
		if rowBits == 0 {
			return // storing the *Batch pointer itself is the held-batch idiom
		}
		if isBatchPtrType(s.typeOf(l.X)) {
			return // writes into a batch's own storage stay inside the ownership unit
		}
		if sel, ok := s.info.Selections[l]; ok && sel.Obj() != nil {
			s.reportOnce(l.Pos(), "struct field %s retains %s aliasing an ephemeral batch beyond the pull loop; deep-copy first (appendBatchRows / Row.Clone)", l.Sel.Name, taintNoun(rowBits))
		}
	case *ast.StarExpr:
		if rowBits != 0 {
			s.reportOnce(l.Pos(), "pointer target retains %s aliasing an ephemeral batch; deep-copy first", taintNoun(rowBits))
		}
	case *ast.IndexExpr:
		if sel, ok := unparen(l.X).(*ast.SelectorExpr); ok && isBatchPtrType(s.typeOf(sel.X)) {
			return // an element of a batch's own Rows (in-place compaction): same ownership unit
		}
		if rowBits != 0 && s.persistentBase(l.X) {
			s.reportOnce(l.Pos(), "element store retains %s aliasing an ephemeral batch; deep-copy first", taintNoun(rowBits))
		}
	}
}

// checkGo reports tainted values crossing into a spawned goroutine, whose
// lifetime is not bounded by the current pull iteration.
func (s *escapeScan) checkGo(g *ast.GoStmt, facts varFacts) {
	if s.report == nil {
		return
	}
	for _, a := range g.Call.Args {
		if t := s.taintOf(a, facts); t != 0 {
			s.reportOnce(a.Pos(), "goroutine receives %s aliasing an ephemeral batch; it may outlive the pull iteration — deep-copy first", taintNoun(t))
		}
	}
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := s.info.Uses[id]
			if obj == nil {
				return true
			}
			if t := facts[obj]; t != 0 {
				s.reportOnce(id.Pos(), "goroutine captures %s (%s) aliasing an ephemeral batch; it may outlive the pull iteration — deep-copy first", id.Name, taintNoun(t))
			}
			return true
		})
	}
	s.checkCalls(g.Call, facts)
}

// checkCalls walks e for calls passing tainted arguments to parameters the
// callee persists (the interprocedural composition with the call graph).
func (s *escapeScan) checkCalls(e ast.Expr, facts varFacts) {
	if s.report == nil || e == nil {
		return
	}
	inspectNoLit(e, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		callee := s.staticCalleeFunc(call)
		if callee == nil {
			return
		}
		sig, _ := callee.Type().(*types.Signature)
		if sig == nil {
			return
		}
		params := sig.Params()
		for i, a := range call.Args {
			pi := i
			if pi >= params.Len() {
				if !sig.Variadic() || params.Len() == 0 {
					break
				}
				pi = params.Len() - 1
			}
			if !s.retains[params.At(pi)] {
				continue
			}
			if t := s.taintOf(a, facts); t&(tRow|tRows|tBatch) != 0 {
				s.reportOnce(a.Pos(), "%s persists its %q parameter, but this argument is %s aliasing an ephemeral batch; deep-copy first", callee.Name(), params.At(pi).Name(), taintNoun(t))
			}
		}
	})
}

// taintOf computes the taint bits of an expression under facts.
func (s *escapeScan) taintOf(e ast.Expr, facts varFacts) uint8 {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := s.objOf(e); obj != nil {
			return facts[obj]
		}
	case *ast.ParenExpr:
		return s.taintOf(e.X, facts)
	case *ast.SelectorExpr:
		if pkgNameOf(s.info, e.X) != nil {
			return 0
		}
		t := s.typeOf(e)
		if _, isField := s.info.Selections[e]; isField && isBatchPtrType(t) {
			// Reading a *Batch out of any field yields a foreign batch: the
			// holder may recycle or overwrite it on the next pull.
			return tBatch
		}
		if bt := s.taintOf(e.X, facts); bt&tBatch != 0 {
			switch {
			case isRowSliceType(t):
				return tRows
			case isRowType(t):
				return tRow
			}
		}
	case *ast.IndexExpr:
		if s.taintOf(e.X, facts)&tRows != 0 {
			return tRow
		}
		// Indexing a Row yields a Datum value — a deep copy.
	case *ast.SliceExpr:
		return s.taintOf(e.X, facts) // reslicing preserves aliasing
	case *ast.StarExpr:
		return s.taintOf(e.X, facts)
	case *ast.TypeAssertExpr:
		return s.taintOf(e.X, facts)
	case *ast.UnaryExpr:
		switch e.Op {
		case token.AND:
			// &rows[i] / &row[j]: a pointer into slab-backed storage.
			if ix, ok := unparen(e.X).(*ast.IndexExpr); ok {
				if s.taintOf(ix.X, facts)&(tRow|tRows) != 0 {
					return tRow
				}
			}
			return s.taintOf(e.X, facts) &^ tBatch
		case token.ARROW:
			// Channel receives yield foreign values by construction.
			return taintMaskForType(s.typeOf(e))
		}
	case *ast.CompositeLit:
		var t uint8
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			t |= s.taintOf(el, facts)
		}
		return t
	case *ast.CallExpr:
		return s.taintOfCall(e, facts)
	}
	return 0
}

func (s *escapeScan) taintOfCall(call *ast.CallExpr, facts varFacts) uint8 {
	if s.isAppend(call) {
		var t uint8
		for _, a := range call.Args {
			t |= s.taintOf(a, facts) & (tRow | tRows)
		}
		if t != 0 {
			return tRows
		}
		return 0
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := s.info.Uses[id].(*types.Builtin); isBuiltin {
			return 0 // len/cap/copy/make/new — copy is element-wise, a deep copy
		}
	}
	// Conversions preserve aliasing for slice-shaped types.
	if tv, ok := s.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return s.taintOf(call.Args[0], facts) & taintMaskForType(s.typeOf(call))
	}
	if callee := s.staticCalleeFunc(call); callee != nil && isOwnedBatchSource(callee) {
		return 0
	}
	// Alloc on a tainted batch carves a row out of its slab.
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if isBatchPtrType(s.typeOf(sel.X)) && isRowType(s.typeOf(call)) {
			if s.taintOf(sel.X, facts)&tBatch != 0 {
				return tRow
			}
			return 0
		}
	}
	// Any other call returning *Batch produces a foreign batch (NextBatch,
	// interface dispatch).
	if isBatchPtrType(s.resultType0(call)) {
		return tBatch
	}
	return 0
}

func (s *escapeScan) isAppend(call *ast.CallExpr) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := s.info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func (s *escapeScan) objOf(id *ast.Ident) types.Object {
	if obj := s.info.Defs[id]; obj != nil {
		return obj
	}
	return s.info.Uses[id]
}

func (s *escapeScan) typeOf(e ast.Expr) types.Type {
	if tv, ok := s.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// resultType0 is the type of a call's first (or only) result.
func (s *escapeScan) resultType0(call *ast.CallExpr) types.Type {
	t := s.typeOf(call)
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return nil
		}
		return tup.At(0).Type()
	}
	return t
}

// staticCalleeFunc resolves a call to its declared function or method, or
// nil for builtins, literals, and function values.
func (s *escapeScan) staticCalleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := s.info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := s.info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// persistentBase reports whether an index expression's base outlives the
// function frame: a field, package variable, or pointer dereference.
func (s *escapeScan) persistentBase(e ast.Expr) bool {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		obj := s.objOf(e)
		return obj != nil && isPackageLevel(obj)
	case *ast.SelectorExpr:
		if pkgNameOf(s.info, e.X) != nil {
			return true
		}
		_, isField := s.info.Selections[e]
		return isField
	case *ast.StarExpr:
		return true
	case *ast.IndexExpr:
		return s.persistentBase(e.X)
	}
	return false
}

// --- type and callee classification --------------------------------------

func namedTypeOf(t types.Type) *types.TypeName {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt.Obj()
		default:
			return nil
		}
	}
}

func isNamedAs(t types.Type, pkgPath, name string) bool {
	tn := namedTypeOf(t)
	return tn != nil && tn.Name() == name && tn.Pkg() != nil && tn.Pkg().Path() == pkgPath
}

func isBatchPtrType(t types.Type) bool { return isNamedAs(t, executorPath, "Batch") }
func isRowType(t types.Type) bool      { return isNamedAs(t, schemaPath, "Row") }

func isRowSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	return ok && isRowType(sl.Elem())
}

func isDatumPtrType(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	return ok && isNamedAs(p.Elem(), "repro/internal/types", "Datum")
}

// taintMaskForType is the taint a value of this static type can carry.
func taintMaskForType(t types.Type) uint8 {
	switch {
	case t == nil:
		return 0
	case isBatchPtrType(t):
		return tBatch
	case isRowType(t), isDatumPtrType(t):
		return tRow
	case isRowSliceType(t):
		return tRows
	}
	if p, ok := t.(*types.Pointer); ok {
		if isRowType(p.Elem()) || isRowSliceType(p.Elem()) {
			return tRow | tRows
		}
	}
	if ch, ok := t.Underlying().(*types.Chan); ok {
		return taintMaskForType(ch.Elem()) // recv taint of the element
	}
	return 0
}

// isOwnedBatchSource reports whether f constructs an owned (non-foreign)
// batch: fresh allocation or the pool transfer path.
func isOwnedBatchSource(f *types.Func) bool {
	if f.Pkg() == nil || f.Pkg().Path() != executorPath {
		return false
	}
	switch f.Name() {
	case "NewBatch", "getBatch", "cloneForTransfer":
		return true
	}
	return false
}

// isBatchSanitizer reports whether f deep-copies batch rows.
func isBatchSanitizer(f *types.Func) bool {
	return f.Pkg() != nil && f.Pkg().Path() == executorPath && f.Name() == "appendBatchRows"
}

func isPackageLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func taintNoun(t uint8) string {
	switch {
	case t&tBatch != 0:
		return "a batch"
	case t&tRows != 0:
		return "rows"
	default:
		return "a row"
	}
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// inspectNoLit walks n in source order without descending into function
// literal bodies (each literal is its own FuncNode with its own analysis)
// or into a range statement's body: the CFG carries the whole RangeStmt in
// its loop-head block while the body's statements live in successor blocks,
// so descending would re-visit body sites out of their flow context —
// select sends would lose their arm, field sites would vote twice.
func inspectNoLit(n ast.Node, f func(ast.Node)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case nil:
			return false
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			f(n)
			if n.Key != nil {
				inspectNoLit(n.Key, f)
			}
			if n.Value != nil {
				inspectNoLit(n.Value, f)
			}
			inspectNoLit(n.X, f)
			return false
		}
		f(n)
		return true
	})
}

// computeBatchRetains finds parameters that persist their argument: the
// parameter (by identifier use) reaches a persistent store, a channel send,
// or a go-captured closure inside the callee, or is forwarded to another
// retaining parameter — a worklist fixpoint over the call graph.
func computeBatchRetains(g *CallGraph) map[*types.Var]bool {
	retains := map[*types.Var]bool{}
	type fwd struct{ from, to *types.Var }
	var forwards []fwd

	for _, fn := range g.sortedFuncs() {
		if fn.Body == nil || fn.Pkg.Info == nil {
			continue
		}
		info := fn.Pkg.Info
		params := paramVars(fn)
		if len(params) == 0 {
			continue
		}
		s := &escapeScan{info: info}
		usesParam := func(e ast.Expr) *types.Var {
			var found *types.Var
			inspectNoLit(e, func(n ast.Node) {
				id, ok := n.(*ast.Ident)
				if !ok || found != nil {
					return
				}
				if v, ok := info.Uses[id].(*types.Var); ok && params[v] {
					found = v
				}
			})
			return found
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					if !s.persistentLHS(lhs) {
						continue
					}
					if p := usesParam(n.Rhs[i]); p != nil {
						retains[p] = true
					}
				}
			case *ast.SendStmt:
				if p := usesParam(n.Value); p != nil {
					retains[p] = true
				}
			case *ast.GoStmt:
				if p := usesParam(n.Call); p != nil {
					retains[p] = true
				}
			case *ast.CallExpr:
				callee := s.staticCalleeFunc(n)
				if callee == nil {
					return true
				}
				sig, _ := callee.Type().(*types.Signature)
				if sig == nil {
					return true
				}
				for i, a := range n.Args {
					pi := i
					if pi >= sig.Params().Len() {
						if !sig.Variadic() || sig.Params().Len() == 0 {
							break
						}
						pi = sig.Params().Len() - 1
					}
					if id, ok := unparen(a).(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok && params[v] {
							forwards = append(forwards, fwd{from: v, to: sig.Params().At(pi)})
						}
					}
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, f := range forwards {
			if retains[f.to] && !retains[f.from] {
				retains[f.from] = true
				changed = true
			}
		}
	}
	return retains
}

// persistentLHS reports whether an assignment target outlives the call
// frame, with the *Batch-base exemption shared with checkStore.
func (s *escapeScan) persistentLHS(lhs ast.Expr) bool {
	switch l := unparen(lhs).(type) {
	case *ast.Ident:
		obj := s.objOf(l)
		return obj != nil && isPackageLevel(obj)
	case *ast.SelectorExpr:
		if pkgNameOf(s.info, l.X) != nil {
			return true
		}
		if isBatchPtrType(s.typeOf(l.X)) {
			return false // stores into a batch stay inside the ownership unit
		}
		_, isField := s.info.Selections[l]
		return isField
	case *ast.StarExpr:
		// Writes through pointer parameters (e.g. *all = appendBatchRows(…))
		// hand the value to the caller, whose ownership the call-site check
		// audits; not a retain by the callee itself.
		return false
	case *ast.IndexExpr:
		return s.persistentBase(l.X)
	}
	return false
}

// paramVars collects fn's parameter objects whose types can carry taint.
func paramVars(fn *FuncNode) map[*types.Var]bool {
	var sig *types.Signature
	if fn.Obj != nil {
		sig, _ = fn.Obj.Type().(*types.Signature)
	} else if fn.Lit != nil && fn.Pkg.Info != nil {
		if tv, ok := fn.Pkg.Info.Types[fn.Lit]; ok {
			sig, _ = tv.Type.(*types.Signature)
		}
	}
	if sig == nil {
		return nil
	}
	out := map[*types.Var]bool{}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if taintMaskForType(p.Type()) != 0 {
			out[p] = true
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
