package lint

// Per-function summaries: the facts the interprocedural rules consume.
// The walker in this file populates them while building call edges, in a
// single deterministic traversal per function body.

import (
	"go/ast"
	"go/token"
	"go/types"
)

const (
	executorPath = "repro/internal/executor"
	tracePath    = "repro/internal/trace"
	popPath      = "repro/internal/pop"
)

// EventKind classifies one entry in a function's ordered event stream.
type EventKind int

// The event kinds the lock-order replay distinguishes.
const (
	EvLock   EventKind = iota // mutex Lock/RLock
	EvUnlock                  // mutex Unlock/RUnlock (non-deferred only)
	EvBlock                   // potentially blocking operation
	EvCall                    // resolved synchronous call
)

// Event is one lock, blocking, or call site, in source order. The lockorder
// rule replays the stream with a held-lock set.
type Event struct {
	Kind    EventKind
	Pos     token.Pos
	Class   types.Object // lock class for EvLock/EvUnlock
	Name    string       // lock class display name, blocking-op description, or callee name
	Write   bool         // EvLock: write lock (Lock) vs read lock (RLock)
	Targets []*FuncNode  // EvCall: one static callee, or CHA-resolved implementations
}

// WGOpKind is a sync.WaitGroup operation.
type WGOpKind int

// The WaitGroup operations the leak rule pairs up.
const (
	WGAdd WGOpKind = iota
	WGDone
	WGWait
)

// WGOp is one WaitGroup Add/Done/Wait call, keyed by the WaitGroup's
// variable identity so Add in Open, Done in a worker literal, and Wait in a
// closer pair up across functions.
type WGOp struct {
	Kind  WGOpKind
	Class types.Object
	Pos   token.Pos
}

// ChanOpKind is a channel operation.
type ChanOpKind int

// The channel operations the leak rule tracks per channel identity.
const (
	ChanSend ChanOpKind = iota
	ChanRecv
	ChanClose
	ChanRange
)

// ChanOp is one channel operation, keyed by the channel's variable identity.
type ChanOp struct {
	Kind  ChanOpKind
	Class types.Object
	Pos   token.Pos
}

// Summary is the per-function fact set.
type Summary struct {
	Events []Event // ordered lock/block/call stream for lockorder

	Charges  []token.Pos // calls to (*executor.Meter).Add
	KindRefs []KindRef   // uses of trace.Kind constants
	Records  []token.Pos // calls to a Record(trace.Event) method

	WGOps   []WGOp
	ChanOps []ChanOp

	ViolationLits   []token.Pos // &executor.CheckViolation{...} literals
	ViolatedWrites  []token.Pos // assignments to NodeStats.Violated
	ErrorsAsCV      []token.Pos // errors.As(err, &*CheckViolation)
	InvalidateCalls []token.Pos // calls to (*pop.Entry).Invalidate
}

// KindRef is a reference to a trace.Kind constant by name.
type KindRef struct {
	Name string
	Pos  token.Pos
}

// RefsKind reports whether the function references the trace.Kind constant.
func (s *Summary) RefsKind(name string) bool {
	for _, k := range s.KindRefs {
		if k.Name == name {
			return true
		}
	}
	return false
}

// --- the walker ---------------------------------------------------------

type walker struct {
	g       *CallGraph
	pkg     *Package
	pending *[]pendingIface
}

// walkBody traverses fn's body, populating fn.Sum and fn's call edges.
// Function literals become their own nodes (walked recursively); `go`
// statements become spawns rather than call edges.
func (w *walker) walkBody(fn *FuncNode, body *ast.BlockStmt) {
	if fn == nil || body == nil {
		return
	}
	for _, stmt := range body.List {
		w.walkStmt(fn, stmt)
	}
}

func (w *walker) walkStmt(fn *FuncNode, stmt ast.Stmt) {
	switch s := stmt.(type) {
	case nil:
	case *ast.GoStmt:
		w.walkGo(fn, s)
	case *ast.DeferStmt:
		w.walkCall(fn, s.Call, true)
	case *ast.SendStmt:
		w.walkExpr(fn, s.Chan)
		w.walkExpr(fn, s.Value)
		w.chanOp(fn, ChanSend, s.Chan, s.Pos())
		w.block(fn, "channel send", s.Pos())
	case *ast.RangeStmt:
		w.walkExpr(fn, s.X)
		if t := w.pkg.Info.TypeOf(s.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				w.chanOp(fn, ChanRange, s.X, s.Pos())
				w.block(fn, "channel range", s.Pos())
			}
		}
		w.walkBody(fn, s.Body)
	case *ast.SelectStmt:
		blocking := true
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				blocking = false // default clause
			}
		}
		if blocking {
			w.block(fn, "select", s.Pos())
		}
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			// Record the comm's channel op without a second block event.
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				w.walkExpr(fn, comm.Chan)
				w.walkExpr(fn, comm.Value)
				w.chanOp(fn, ChanSend, comm.Chan, comm.Pos())
			case *ast.ExprStmt:
				w.commRecv(fn, comm.X)
			case *ast.AssignStmt:
				for _, rhs := range comm.Rhs {
					w.commRecv(fn, rhs)
				}
			}
			for _, body := range cc.Body {
				w.walkStmt(fn, body)
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			w.noteViolatedWrite(fn, lhs)
			w.walkExpr(fn, lhs)
		}
		for _, rhs := range s.Rhs {
			w.walkExpr(fn, rhs)
		}
	case *ast.ExprStmt:
		w.walkExpr(fn, s.X)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.walkExpr(fn, r)
		}
	case *ast.IfStmt:
		w.walkStmt(fn, s.Init)
		w.walkExpr(fn, s.Cond)
		w.walkBody(fn, s.Body)
		w.walkStmt(fn, s.Else)
	case *ast.ForStmt:
		w.walkStmt(fn, s.Init)
		w.walkExpr(fn, s.Cond)
		w.walkStmt(fn, s.Post)
		w.walkBody(fn, s.Body)
	case *ast.SwitchStmt:
		w.walkStmt(fn, s.Init)
		w.walkExpr(fn, s.Tag)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.walkExpr(fn, e)
				}
				for _, b := range cc.Body {
					w.walkStmt(fn, b)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		w.walkStmt(fn, s.Init)
		w.walkStmt(fn, s.Assign)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, b := range cc.Body {
					w.walkStmt(fn, b)
				}
			}
		}
	case *ast.BlockStmt:
		w.walkBody(fn, s)
	case *ast.LabeledStmt:
		w.walkStmt(fn, s.Stmt)
	case *ast.IncDecStmt:
		w.walkExpr(fn, s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.walkExpr(fn, v)
					}
				}
			}
		}
	}
}

// walkExpr traverses an expression, turning calls into events/edges and
// literals into child nodes.
func (w *walker) walkExpr(fn *FuncNode, e ast.Expr) {
	switch x := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.walkCall(fn, x, false)
	case *ast.FuncLit:
		lit := w.litNode(fn, x)
		// A literal that is not the operand of `go` runs on this goroutine
		// (defer, immediate call, callback registration): call edge.
		fn.noteCall(lit, x.Pos())
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			w.walkExpr(fn, x.X)
			w.chanOp(fn, ChanRecv, x.X, x.Pos())
			w.block(fn, "channel receive", x.Pos())
			return
		}
		w.walkExpr(fn, x.X)
	case *ast.BinaryExpr:
		w.walkExpr(fn, x.X)
		w.walkExpr(fn, x.Y)
	case *ast.ParenExpr:
		w.walkExpr(fn, x.X)
	case *ast.StarExpr:
		w.walkExpr(fn, x.X)
	case *ast.SelectorExpr:
		w.noteKindRef(fn, x.Sel)
		w.walkExpr(fn, x.X)
	case *ast.Ident:
		w.noteKindRef(fn, x)
	case *ast.IndexExpr:
		w.walkExpr(fn, x.X)
		w.walkExpr(fn, x.Index)
	case *ast.IndexListExpr:
		w.walkExpr(fn, x.X)
		for _, idx := range x.Indices {
			w.walkExpr(fn, idx)
		}
	case *ast.SliceExpr:
		w.walkExpr(fn, x.X)
		w.walkExpr(fn, x.Low)
		w.walkExpr(fn, x.High)
		w.walkExpr(fn, x.Max)
	case *ast.TypeAssertExpr:
		w.walkExpr(fn, x.X)
	case *ast.CompositeLit:
		w.noteViolationLit(fn, x)
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.walkExpr(fn, kv.Value)
				continue
			}
			w.walkExpr(fn, el)
		}
	case *ast.KeyValueExpr:
		w.walkExpr(fn, x.Value)
	}
}

// commRecv records the channel receive inside a select comm clause (no
// extra block event — the select itself already produced one).
func (w *walker) commRecv(fn *FuncNode, e ast.Expr) {
	if un, ok := e.(*ast.UnaryExpr); ok && un.Op == token.ARROW {
		w.walkExpr(fn, un.X)
		w.chanOp(fn, ChanRecv, un.X, un.Pos())
		return
	}
	w.walkExpr(fn, e)
}

func (w *walker) litNode(parent *FuncNode, lit *ast.FuncLit) *FuncNode {
	if n, ok := w.g.byLit[lit]; ok {
		return n
	}
	n := &FuncNode{
		Lit:    lit,
		Name:   parent.Name + "$lit",
		Pkg:    w.pkg,
		Body:   lit.Body,
		Pos:    lit.Pos(),
		Parent: parent,
	}
	w.g.addNode(n)
	w.walkBody(n, lit.Body)
	return n
}

func (w *walker) walkGo(fn *FuncNode, s *ast.GoStmt) {
	// Arguments evaluate synchronously on the spawner.
	for _, arg := range s.Call.Args {
		w.walkExpr(fn, arg)
	}
	sp := &GoSpawn{Pos: s.Pos(), In: fn, Pkg: w.pkg}
	switch fun := s.Call.Fun.(type) {
	case *ast.FuncLit:
		sp.Callee = w.litNode(fn, fun)
	default:
		if obj := w.staticCallee(s.Call); obj != nil {
			sp.Callee = w.g.byObj[obj]
		}
	}
	w.g.Spawns = append(w.g.Spawns, sp)
}

// walkCall handles a call expression: summary facts, blocking
// classification, and the call edge. deferred marks `defer f(...)` — its
// unlocks are held to function end rather than released in sequence.
func (w *walker) walkCall(fn *FuncNode, call *ast.CallExpr, deferred bool) {
	// Type conversions are not calls.
	if tv, ok := w.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		for _, arg := range call.Args {
			w.walkExpr(fn, arg)
		}
		return
	}

	// close(ch) builtin.
	if id, ok := call.Fun.(*ast.Ident); ok && len(call.Args) == 1 {
		if b, isB := w.pkg.Info.Uses[id].(*types.Builtin); isB && b.Name() == "close" {
			w.walkExpr(fn, call.Args[0])
			w.chanOp(fn, ChanClose, call.Args[0], call.Pos())
			return
		}
	}

	for _, arg := range call.Args {
		w.walkExpr(fn, arg)
	}
	w.noteErrorsAs(fn, call)

	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if w.handleMethodCall(fn, call, sel, deferred) {
			return
		}
		w.noteKindRef(fn, sel.Sel)
		w.walkExpr(fn, sel.X)
	} else {
		w.walkExpr(fn, call.Fun)
	}

	if obj := w.staticCallee(call); obj != nil {
		if callee := w.g.byObj[obj]; callee != nil {
			fn.noteCall(callee, call.Pos())
			return
		}
		return
	}
	if method := w.interfaceCallee(call); method != nil {
		*w.pending = append(*w.pending, pendingIface{caller: fn, method: method, evIdx: len(fn.Sum.Events)})
		fn.Sum.Events = append(fn.Sum.Events, Event{Kind: EvCall, Pos: call.Pos(), Name: method.Name()})
	}
}

// noteCall records both the graph edge and the ordered call event at the
// call site.
func (fn *FuncNode) noteCall(callee *FuncNode, pos token.Pos) {
	fn.addCall(callee)
	fn.Sum.Events = append(fn.Sum.Events, Event{Kind: EvCall, Pos: pos, Targets: []*FuncNode{callee}, Name: callee.Name})
}

// handleMethodCall recognizes the method families the rules track (mutex,
// WaitGroup, Cond, Meter, Record, Invalidate, executor.Run) and records
// their facts. It returns true when the call was fully handled.
func (w *walker) handleMethodCall(fn *FuncNode, call *ast.CallExpr, sel *ast.SelectorExpr, deferred bool) bool {
	obj, _ := w.calleeObj(sel)
	if obj == nil {
		return false
	}
	pkgPath, typeName := methodRecv(obj)
	name := obj.Name()

	switch {
	case pkgPath == "sync" && (typeName == "Mutex" || typeName == "RWMutex"):
		class, cname := w.classOf(sel.X)
		switch name {
		case "Lock", "RLock":
			fn.Sum.Events = append(fn.Sum.Events, Event{
				Kind: EvLock, Pos: call.Pos(), Class: class, Name: cname, Write: name == "Lock",
			})
		case "Unlock", "RUnlock":
			if !deferred {
				fn.Sum.Events = append(fn.Sum.Events, Event{Kind: EvUnlock, Pos: call.Pos(), Class: class, Name: cname})
			}
		case "TryLock", "TryRLock":
			// Non-blocking, and failure paths release nothing: ignore.
		}
		w.walkExpr(fn, sel.X)
		return true

	case pkgPath == "sync" && typeName == "WaitGroup":
		class, _ := w.classOf(sel.X)
		switch name {
		case "Add":
			fn.Sum.WGOps = append(fn.Sum.WGOps, WGOp{Kind: WGAdd, Class: class, Pos: call.Pos()})
		case "Done":
			fn.Sum.WGOps = append(fn.Sum.WGOps, WGOp{Kind: WGDone, Class: class, Pos: call.Pos()})
		case "Wait":
			fn.Sum.WGOps = append(fn.Sum.WGOps, WGOp{Kind: WGWait, Class: class, Pos: call.Pos()})
			w.block(fn, "WaitGroup.Wait", call.Pos())
		}
		w.walkExpr(fn, sel.X)
		return true

	case pkgPath == "sync" && typeName == "Cond" && name == "Wait":
		w.block(fn, "Cond.Wait", call.Pos())
		w.walkExpr(fn, sel.X)
		return true

	case pkgPath == executorPath && typeName == "Meter" && (name == "Add" || name == "AddTicks"):
		fn.Sum.Charges = append(fn.Sum.Charges, call.Pos())
		w.walkExpr(fn, sel.X)
		return true

	case pkgPath == popPath && typeName == "Entry" && name == "Invalidate":
		fn.Sum.InvalidateCalls = append(fn.Sum.InvalidateCalls, call.Pos())
		// fall through to edge recording below
	}

	// Record(ev trace.Event) — concrete or through the Recorder interface.
	if name == "Record" && isRecordSig(obj) {
		fn.Sum.Records = append(fn.Sum.Records, call.Pos())
	}

	w.walkExpr(fn, sel.X)

	if callee := w.g.byObj[obj]; callee != nil {
		// executor.Run-style node drains are long-running; the direct
		// blocking classification lives with the callee's own channel ops,
		// so no extra fact is needed here.
		fn.noteCall(callee, call.Pos())
		return true
	}
	if isInterfaceMethod(obj) {
		*w.pending = append(*w.pending, pendingIface{caller: fn, method: obj, evIdx: len(fn.Sum.Events)})
		fn.Sum.Events = append(fn.Sum.Events, Event{Kind: EvCall, Pos: call.Pos(), Name: obj.Name()})
		return true
	}
	return true
}

// calleeObj resolves the *types.Func a selector call targets.
func (w *walker) calleeObj(sel *ast.SelectorExpr) (*types.Func, bool) {
	if s, ok := w.pkg.Info.Selections[sel]; ok {
		f, _ := s.Obj().(*types.Func)
		return f, true
	}
	// Qualified identifier: pkg.Func.
	f, _ := w.pkg.Info.Uses[sel.Sel].(*types.Func)
	return f, false
}

// staticCallee resolves a call to a statically known declared function.
func (w *walker) staticCallee(call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		f, _ := w.pkg.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := w.calleeObj(fun)
		if f != nil && !isInterfaceMethod(f) {
			return f
		}
	case *ast.ParenExpr:
		inner := &ast.CallExpr{Fun: fun.X, Args: call.Args}
		return w.staticCallee(inner)
	}
	return nil
}

// interfaceCallee resolves a call through an interface method.
func (w *walker) interfaceCallee(call *ast.CallExpr) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	f, _ := w.calleeObj(sel)
	if f != nil && isInterfaceMethod(f) {
		return f
	}
	return nil
}

func isInterfaceMethod(f *types.Func) bool {
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// methodRecv returns the package path and named receiver type of a method,
// or ("", "") for plain functions.
func methodRecv(f *types.Func) (pkgPath, typeName string) {
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

// isRecordSig reports whether f has the Record(trace.Event) shape.
func isRecordSig(f *types.Func) bool {
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Params().Len() != 1 || sig.Results().Len() != 0 {
		return false
	}
	named, ok := sig.Params().At(0).Type().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Event" && obj.Pkg() != nil && obj.Pkg().Path() == tracePath
}

// classOf resolves a synchronization object operand (mutex, WaitGroup,
// channel) to a stable class: the *types.Var of the field or variable.
// Field identity is shared across all instances of the owning struct, which
// is exactly the granularity the lock-order and join analyses need.
func (w *walker) classOf(e ast.Expr) (types.Object, string) {
	switch x := e.(type) {
	case *ast.Ident:
		obj := w.pkg.Info.Uses[x]
		if obj == nil {
			obj = w.pkg.Info.Defs[x]
		}
		return obj, w.pkg.Types.Name() + "." + x.Name
	case *ast.SelectorExpr:
		if s, ok := w.pkg.Info.Selections[x]; ok {
			obj := s.Obj()
			recv := s.Recv()
			if p, isPtr := recv.(*types.Pointer); isPtr {
				recv = p.Elem()
			}
			if named, isNamed := recv.(*types.Named); isNamed {
				tn := named.Obj()
				prefix := tn.Name()
				if tn.Pkg() != nil {
					prefix = tn.Pkg().Name() + "." + prefix
				}
				return obj, prefix + "." + obj.Name()
			}
			return obj, obj.Name()
		}
		// Qualified package-level variable.
		obj := w.pkg.Info.Uses[x.Sel]
		if pn := pkgNameOf(w.pkg.Info, x.X); pn != nil && obj != nil {
			return obj, pn.Imported().Name() + "." + obj.Name()
		}
		return obj, x.Sel.Name
	case *ast.ParenExpr:
		return w.classOf(x.X)
	case *ast.StarExpr:
		return w.classOf(x.X)
	case *ast.UnaryExpr:
		return w.classOf(x.X)
	case *ast.IndexExpr:
		return w.classOf(x.X)
	}
	return nil, "?"
}

func (w *walker) chanOp(fn *FuncNode, kind ChanOpKind, ch ast.Expr, pos token.Pos) {
	class, _ := w.classOf(ch)
	if class == nil {
		return
	}
	fn.Sum.ChanOps = append(fn.Sum.ChanOps, ChanOp{Kind: kind, Class: class, Pos: pos})
}

func (w *walker) block(fn *FuncNode, desc string, pos token.Pos) {
	fn.Sum.Events = append(fn.Sum.Events, Event{Kind: EvBlock, Pos: pos, Name: desc})
}

// noteKindRef records a use of a trace.Kind constant.
func (w *walker) noteKindRef(fn *FuncNode, id *ast.Ident) {
	c, ok := w.pkg.Info.Uses[id].(*types.Const)
	if !ok {
		return
	}
	named, ok := c.Type().(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj.Name() == "Kind" && obj.Pkg() != nil && obj.Pkg().Path() == tracePath {
		fn.Sum.KindRefs = append(fn.Sum.KindRefs, KindRef{Name: c.Name(), Pos: id.Pos()})
	}
}

// noteViolationLit records executor.CheckViolation composite literals.
func (w *walker) noteViolationLit(fn *FuncNode, lit *ast.CompositeLit) {
	t := w.pkg.Info.TypeOf(lit)
	if t == nil {
		return
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj.Name() == "CheckViolation" && obj.Pkg() != nil && obj.Pkg().Path() == executorPath {
		fn.Sum.ViolationLits = append(fn.Sum.ViolationLits, lit.Pos())
	}
}

// noteViolatedWrite records assignments to executor.NodeStats.Violated.
func (w *walker) noteViolatedWrite(fn *FuncNode, lhs ast.Expr) {
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Violated" {
		return
	}
	s, ok := w.pkg.Info.Selections[sel]
	if !ok {
		return
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() || v.Pkg() == nil || v.Pkg().Path() != executorPath {
		return
	}
	fn.Sum.ViolatedWrites = append(fn.Sum.ViolatedWrites, sel.Pos())
}

// noteErrorsAs records errors.As calls whose target is a CheckViolation.
func (w *walker) noteErrorsAs(fn *FuncNode, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "As" || len(call.Args) != 2 {
		return
	}
	pn := pkgNameOf(w.pkg.Info, sel.X)
	if pn == nil || pn.Imported().Path() != "errors" {
		return
	}
	t := w.pkg.Info.TypeOf(call.Args[1])
	for t != nil {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj.Name() == "CheckViolation" && obj.Pkg() != nil && obj.Pkg().Path() == executorPath {
		fn.Sum.ErrorsAsCV = append(fn.Sum.ErrorsAsCV, call.Pos())
	}
}
