package lint

// Interprocedural layer: a CHA-style call graph over go/types plus
// per-function summaries and worklist closure computations. The
// whole-program rules (goroutineleak, lockorder, chargeflow) are built on
// top of it.
//
// The graph is deliberately simple and deterministic:
//
//   - one FuncNode per function declaration, method declaration, or
//     function literal in the loaded program, in file/position order;
//   - static call edges resolved through go/types object identity (the
//     loader memoizes type-checked imports, so a method object is the same
//     *types.Func in every package that calls it);
//   - interface dispatch resolved by Class Hierarchy Analysis: a call
//     through an interface method edges to every concrete method of a
//     named type in the program that implements the interface (executor
//     Node implementations, trace.Recorder implementations, ...);
//   - `go` statements recorded as spawns (asynchronous — not call edges),
//     with the spawned function resolved when it is a literal or a
//     statically known function/method;
//   - `defer` and literal-as-argument treated as ordinary call edges (the
//     callee runs on the same goroutine, which is what the lock and
//     accounting rules care about).
//
// Soundness caveats (documented in DESIGN.md §10): bodies of packages
// outside the module (the stdlib is type-checked from source for its API
// only) are not walked, so facts inside them are invisible; calls through
// plain function values are unresolved; CHA over-approximates dispatch —
// it never misses an implementation declared in the program, but may add
// edges to implementations that cannot flow to a given call site.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// FuncNode is one function in the call graph: a declared function or
// method (Obj != nil) or a function literal (Lit != nil).
type FuncNode struct {
	Obj  *types.Func  // nil for literals and synthetic package-init nodes
	Lit  *ast.FuncLit // nil for declared functions
	Name string       // qualified display name, e.g. "(*hsjnNode).Open" or "Open$1"
	Pkg  *Package
	Body *ast.BlockStmt
	Pos  token.Pos
	Sum  *Summary

	calls []*FuncNode // outgoing edges, deduplicated, in resolution order
}

// Callees returns the functions this node may call synchronously.
func (f *FuncNode) Callees() []*FuncNode { return f.calls }

// GoSpawn is one `go` statement.
type GoSpawn struct {
	Pos    token.Pos
	In     *FuncNode // spawning function
	Callee *FuncNode // spawned function; nil when not statically resolvable
	Pkg    *Package
}

// CallGraph is the whole-program view the interprocedural rules share.
type CallGraph struct {
	Prog   *Program
	Funcs  []*FuncNode
	Spawns []*GoSpawn

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode

	// concreteTypes is every named non-interface type declared in the
	// program, in (package path, name) order — the CHA universe.
	concreteTypes []*types.TypeName
	implCache     map[*types.Func][]*FuncNode
}

// pendingIface is an interface-method call awaiting CHA resolution.
type pendingIface struct {
	caller *FuncNode
	method *types.Func
	evIdx  int // index of the EvCall event to patch with resolved targets
}

// programGraph returns prog's call graph, building it on first use so every
// analyzer in one Run shares the construction work. Run executes analyzers
// sequentially, so no locking is needed, and drops the graph on return, so
// each Run is cold and a linted Program is not kept alive by a memo.
func programGraph(prog *Program) *CallGraph {
	if prog.graph == nil {
		prog.graph = BuildCallGraph(prog)
	}
	return prog.graph
}

// BuildCallGraph constructs the call graph and per-function summaries for
// the program. The result is deterministic: nodes are created in file and
// traversal order, and edges are resolved in that same order.
func BuildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{
		Prog:      prog,
		byObj:     map[*types.Func]*FuncNode{},
		byLit:     map[*ast.FuncLit]*FuncNode{},
		implCache: map[*types.Func][]*FuncNode{},
	}
	g.collectConcreteTypes()

	// Pass 1: one node per declared function/method, so forward references
	// resolve no matter the declaration order.
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &FuncNode{
					Obj:  obj,
					Name: declName(fd),
					Pkg:  pkg,
					Body: fd.Body,
					Pos:  fd.Pos(),
				}
				g.addNode(n)
				g.byObj[obj] = n
			}
		}
	}

	// Pass 2: walk every body, creating literal nodes, summaries, edges and
	// spawns. Interface-method calls are queued and CHA-resolved afterwards,
	// once every node exists.
	var pending []pendingIface
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if obj == nil {
						continue
					}
					w := &walker{g: g, pkg: pkg, pending: &pending}
					w.walkBody(g.byObj[obj], d.Body)
				case *ast.GenDecl:
					// Package-level initializer expressions may contain
					// function literals (e.g. registry tables); attribute
					// them to a synthetic per-file init node.
					var init *FuncNode
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, v := range vs.Values {
							if !containsFuncLit(v) {
								continue
							}
							if init == nil {
								init = &FuncNode{Name: "init#" + pkg.Path, Pkg: pkg, Pos: d.Pos()}
								g.addNode(init)
							}
							w := &walker{g: g, pkg: pkg, pending: &pending}
							w.walkExpr(init, v)
						}
					}
				}
			}
		}
	}

	// Pass 3: CHA resolution of the queued interface calls. Each resolved
	// implementation becomes a call edge, and the EvCall event recorded at
	// queue time learns its targets so lockorder's replay sees them.
	for _, p := range pending {
		impls := g.implementations(p.method)
		for _, impl := range impls {
			p.caller.addCall(impl)
		}
		if p.evIdx >= 0 && p.evIdx < len(p.caller.Sum.Events) {
			p.caller.Sum.Events[p.evIdx].Targets = impls
		}
	}
	return g
}

func (g *CallGraph) addNode(n *FuncNode) {
	n.Sum = &Summary{}
	g.Funcs = append(g.Funcs, n)
	if n.Lit != nil {
		g.byLit[n.Lit] = n
	}
}

func (f *FuncNode) addCall(callee *FuncNode) {
	if callee == nil {
		return
	}
	for _, c := range f.calls {
		if c == callee {
			return
		}
	}
	f.calls = append(f.calls, callee)
}

func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + recvString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

func recvString(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + recvString(t.X)
	case *ast.IndexExpr:
		return recvString(t.X)
	case *ast.IndexListExpr:
		return recvString(t.X)
	}
	return "?"
}

func containsFuncLit(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			found = true
		}
		return !found
	})
	return found
}

// collectConcreteTypes gathers the CHA universe: every named non-interface
// type declared at package scope anywhere in the program, sorted.
func (g *CallGraph) collectConcreteTypes() {
	for _, pkg := range g.Prog.Packages {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if types.IsInterface(tn.Type()) {
				continue
			}
			g.concreteTypes = append(g.concreteTypes, tn)
		}
	}
}

// implementations resolves an interface method to the concrete methods in
// the program that can satisfy it (Class Hierarchy Analysis). Results are
// memoized and ordered by the concrete type universe order.
func (g *CallGraph) implementations(method *types.Func) []*FuncNode {
	if impls, ok := g.implCache[method]; ok {
		return impls
	}
	var impls []*FuncNode
	sig, _ := method.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		g.implCache[method] = nil
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	if iface == nil {
		g.implCache[method] = nil
		return nil
	}
	for _, tn := range g.concreteTypes {
		T := tn.Type()
		var recv types.Type
		switch {
		case types.Implements(T, iface):
			recv = T
		case types.Implements(types.NewPointer(T), iface):
			recv = types.NewPointer(T)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, method.Pkg(), method.Name())
		if f, ok := obj.(*types.Func); ok {
			if n := g.byObj[f]; n != nil {
				impls = append(impls, n)
			}
		}
	}
	g.implCache[method] = impls
	return impls
}

// --- closures -----------------------------------------------------------

// Closure returns the synchronous call closure of start: start plus every
// function reachable from it via call edges, in deterministic order.
func (g *CallGraph) Closure(start *FuncNode) []*FuncNode {
	if start == nil {
		return nil
	}
	seen := make(map[*FuncNode]bool)
	var out []*FuncNode
	var visit func(f *FuncNode)
	visit = func(f *FuncNode) {
		if seen[f] {
			return
		}
		seen[f] = true
		out = append(out, f)
		for _, c := range f.calls {
			visit(c)
		}
	}
	visit(start)
	return out
}

// propagate runs a worklist fixpoint: fact(f) starts as base(f) and becomes
// true when any callee's fact is true. It returns the fact set — "a
// base-satisfying function is reachable from f".
func (g *CallGraph) propagate(base func(*FuncNode) bool) map[*FuncNode]bool {
	fact := make(map[*FuncNode]bool, len(g.Funcs))
	callers := make(map[*FuncNode][]*FuncNode)
	var work []*FuncNode
	for _, f := range g.Funcs {
		for _, c := range f.calls {
			callers[c] = append(callers[c], f)
		}
		if base(f) {
			fact[f] = true
			work = append(work, f)
		}
	}
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		for _, caller := range callers[f] {
			if !fact[caller] {
				fact[caller] = true
				work = append(work, caller)
			}
		}
	}
	return fact
}

// sortedFuncs returns the program's functions ordered by source position —
// the canonical reporting order for whole-program rules.
func (g *CallGraph) sortedFuncs() []*FuncNode {
	out := append([]*FuncNode(nil), g.Funcs...)
	sort.Slice(out, func(i, j int) bool {
		pi, pj := g.Prog.Fset.Position(out[i].Pos), g.Prog.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	return out
}
