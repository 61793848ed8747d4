package lint

// Intraprocedural control-flow graphs: the flow-sensitive substrate under
// blockingcancel, which reads the loop marks. A CFG is built from a
// function body's AST alone — no type information — so the builder also
// serves as a fuzz target over arbitrary parseable sources.
//
// Shape:
//
//   - Blocks[0] is the entry; Exit is a synthetic block created last, and
//     every return statement (and normal fall-off) edges to it. Deferred
//     calls execute at function exit, so the recorded defer expressions are
//     replayed as the Exit block's trailing nodes, in LIFO order.
//   - a block's Nodes mix statements and the expressions that control
//     branches (if/for conditions, switch tags, range operands), in
//     execution order, so a walk over the block sees each condition
//     exactly once.
//   - branch edges: if/else joins, for/range back edges, switch/select
//     clause fan-out (with fallthrough), break/continue/goto (labeled or
//     not) resolved against the enclosing frame stack, unreachable code
//     parked in predecessor-less blocks.
//   - Loop marks every block created inside a for/range loop (head, body,
//     and post blocks) so rules can ask "does this site repeat?" without
//     re-deriving cycles. Cycles formed only by goto are not marked.
//   - function literals are NOT descended into: each literal is its own
//     FuncNode with its own CFG; the literal expression just appears inside
//     some node of the enclosing function.
//
// Block creation order is deterministic (a single syntax-directed pass), so
// two builds of the same body yield identical Block indices and Succ
// orders — pinned by the fuzz target.

import (
	"go/ast"
	"go/token"
)

// CFGBlock is one basic block: straight-line nodes plus ordered successor
// edges.
type CFGBlock struct {
	Index int
	Nodes []ast.Node // stmts and branch-controlling exprs, execution order
	Succs []*CFGBlock
	Preds []*CFGBlock
	Loop  bool // created inside a for/range loop
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*CFGBlock // creation order; Blocks[0] is the entry
	Exit   *CFGBlock   // synthetic exit; holds deferred calls in LIFO order
}

// BuildCFG constructs the control-flow graph for a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: map[string]*CFGBlock{}}
	b.cur = b.newBlock()
	if body != nil {
		b.stmtList(body.List)
	}
	exit := b.newBlock()
	b.cfg.Exit = exit
	if b.cur != nil {
		b.edge(b.cur, exit)
	}
	for _, ret := range b.exits {
		b.edge(ret, exit)
	}
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			b.edge(g.from, target)
		}
	}
	for i := len(b.defers) - 1; i >= 0; i-- {
		exit.Nodes = append(exit.Nodes, b.defers[i])
	}
	return b.cfg
}

// cfgFrame is one enclosing breakable construct: a loop (cont != nil), or a
// switch/select (cont == nil, next = fallthrough target for switches).
type cfgFrame struct {
	label string
	brk   *CFGBlock
	cont  *CFGBlock
	next  *CFGBlock // fallthrough target within a switch
}

type pendingGoto struct {
	from  *CFGBlock
	label string
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *CFGBlock // nil after a terminating statement
	frames []*cfgFrame
	labels map[string]*CFGBlock
	gotos  []pendingGoto
	exits  []*CFGBlock // blocks ending in return
	defers []ast.Node  // deferred calls, declaration order

	loopDepth int
	nextLabel string // label attached to the next for/range/switch/select
}

func (b *cfgBuilder) newBlock() *CFGBlock {
	blk := &CFGBlock{Index: len(b.cfg.Blocks), Loop: b.loopDepth > 0}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *CFGBlock) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// add appends a node to the current block, materializing an unreachable
// block first when control cannot reach here (code after return/break).
func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	b.ensure()
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) ensure() {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the label recorded by an enclosing LabeledStmt.
func (b *cfgBuilder) takeLabel() string {
	l := b.nextLabel
	b.nextLabel = ""
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		b.ensure()
		target := b.newBlock()
		b.edge(b.cur, target)
		b.cur = target
		b.labels[s.Label.Name] = target
		b.nextLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.nextLabel = ""
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, s.Body)
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Body, s.Assign)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.exits = append(b.exits, b.cur)
		b.cur = nil
	case *ast.DeferStmt:
		b.add(s)
		b.defers = append(b.defers, s)
	default:
		// Assign, Decl, Expr, Send, IncDec, Go: straight-line nodes.
		b.add(s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur
	then := b.newBlock()
	b.edge(cond, then)
	b.cur = then
	b.stmt(s.Body)
	thenEnd := b.cur
	var elseEnd *CFGBlock
	hasElse := s.Else != nil
	if hasElse {
		els := b.newBlock()
		b.edge(cond, els)
		b.cur = els
		b.stmt(s.Else)
		elseEnd = b.cur
	}
	after := b.newBlock()
	if !hasElse {
		b.edge(cond, after)
	}
	if thenEnd != nil {
		b.edge(thenEnd, after)
	}
	if elseEnd != nil {
		b.edge(elseEnd, after)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	b.ensure()
	outer := b.loopDepth
	b.loopDepth++
	head := b.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	if s.Cond != nil {
		b.add(s.Cond)
	}
	b.loopDepth = outer
	after := b.newBlock()
	b.loopDepth = outer + 1
	var post *CFGBlock
	cont := head
	if s.Post != nil {
		post = b.newBlock()
		cont = post
	}
	body := b.newBlock()
	b.edge(head, body)
	if s.Cond != nil {
		b.edge(head, after)
	}
	b.frames = append(b.frames, &cfgFrame{label: label, brk: after, cont: cont})
	b.cur = body
	b.stmt(s.Body)
	b.frames = b.frames[:len(b.frames)-1]
	if b.cur != nil {
		b.edge(b.cur, cont)
	}
	if post != nil {
		b.cur = post
		b.add(s.Post)
		b.edge(post, head)
	}
	b.loopDepth = outer
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	b.ensure()
	outer := b.loopDepth
	b.loopDepth++
	head := b.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	b.add(s) // the RangeStmt node carries X evaluation + key/value binding
	b.loopDepth = outer
	after := b.newBlock()
	b.loopDepth = outer + 1
	body := b.newBlock()
	b.edge(head, body)
	b.edge(head, after)
	b.frames = append(b.frames, &cfgFrame{label: label, brk: after, cont: head})
	b.cur = body
	b.stmt(s.Body)
	b.frames = b.frames[:len(b.frames)-1]
	if b.cur != nil {
		b.edge(b.cur, head)
	}
	b.loopDepth = outer
	b.cur = after
}

// switchStmt handles both expression and type switches; extra holds the
// type switch's Assign statement, executed in the head block.
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, extra ...ast.Stmt) {
	label := b.takeLabel()
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	for _, e := range extra {
		b.add(e)
	}
	b.ensure()
	head := b.cur
	after := b.newBlock()
	var clauses []*ast.CaseClause
	var blocks []*CFGBlock
	hasDefault := false
	for _, cs := range body.List {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.edge(head, blk)
		if cc.List == nil {
			hasDefault = true
		}
		clauses = append(clauses, cc)
		blocks = append(blocks, blk)
	}
	if !hasDefault {
		b.edge(head, after)
	}
	for i, cc := range clauses {
		frame := &cfgFrame{label: label, brk: after}
		if i+1 < len(blocks) {
			frame.next = blocks[i+1]
		}
		b.frames = append(b.frames, frame)
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		b.stmtList(cc.Body)
		b.frames = b.frames[:len(b.frames)-1]
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	b.ensure()
	head := b.cur
	after := b.newBlock()
	var clauses []*ast.CommClause
	var blocks []*CFGBlock
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.edge(head, blk)
		clauses = append(clauses, cc)
		blocks = append(blocks, blk)
	}
	for i, cc := range clauses {
		b.frames = append(b.frames, &cfgFrame{label: label, brk: after})
		b.cur = blocks[i]
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.frames = b.frames[:len(b.frames)-1]
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	// A clauseless select {} blocks forever: after stays unreachable.
	b.cur = after
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if t := b.findFrame(label, false); t != nil {
			b.edge(b.cur, t.brk)
		}
	case token.CONTINUE:
		if t := b.findFrame(label, true); t != nil {
			b.edge(b.cur, t.cont)
		}
	case token.GOTO:
		b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: label})
	case token.FALLTHROUGH:
		for i := len(b.frames) - 1; i >= 0; i-- {
			if b.frames[i].next != nil {
				b.edge(b.cur, b.frames[i].next)
				break
			}
			if b.frames[i].cont == nil {
				break // innermost switch has no next clause
			}
		}
	}
	b.cur = nil
}

// findFrame resolves a break (needCont=false) or continue (needCont=true)
// target, innermost first; label "" matches any eligible frame.
func (b *cfgBuilder) findFrame(label string, needCont bool) *cfgFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if needCont && f.cont == nil {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}
