package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// serverPath is the admission-controlled serving layer; together with the
// executor it is the audited consumer surface of the worker pool.
const serverPath = "repro/internal/server"

// PoolLeakAnalyzer machine-checks the WorkerGate contract the popserver
// scheduler depends on: every AcquireWorkers grant must be returned by
// exactly one ReleaseWorkers call, or the global budget shrinks forever and
// every later exchange runs at a zero grant's DOP 1. Two obligations
// at every AcquireWorkers call site under the executor or server paths:
//
//  1. The grant must not be discarded: an AcquireWorkers call as a bare
//     expression statement leaks its entire grant on the spot.
//  2. A ReleaseWorkers call must be provably reachable from the acquiring
//     function — through ordinary call edges, or through a method of a
//     struct type the acquiring path constructs (the executor's idiom:
//     acquireWorkers wraps the grant in a workerGrant whose release method
//     is invoked later by the owning node's Close).
//
// The constructed-type extension deliberately over-approximates: handing
// the grant to a value whose type owns a releasing method counts as a
// release path even if no caller ever invokes it. That keeps the rule free
// of false positives on ownership-transfer idioms while still catching the
// real failure modes — a dropped result and an acquire with no release
// anywhere in reach.
var PoolLeakAnalyzer = &Analyzer{
	Name: "poolleak",
	Doc:  "every WorkerGate.AcquireWorkers grant must be discharged by a reachable ReleaseWorkers call",
	Run:  runPoolLeak,
}

// poolScope is where acquire sites are audited. Release facts are gathered
// program-wide so a release living outside the scope still discharges an
// in-scope acquire.
var poolScope = []string{executorPath, serverPath}

// poolFacts is the per-function fact set the rule consumes.
type poolFacts struct {
	acquires   []token.Pos        // in-scope AcquireWorkers call sites
	discarded  map[token.Pos]bool // acquire sites whose result is dropped
	releases   bool               // body contains a ReleaseWorkers call
	constructs []*types.Named     // named struct types built via composite literal
}

func runPoolLeak(prog *Program, report ReportFunc) {
	g := programGraph(prog)

	facts := make(map[*FuncNode]*poolFacts, len(g.Funcs))
	for _, fn := range g.Funcs {
		facts[fn] = poolFactsOf(fn)
	}

	// "A direct ReleaseWorkers call is reachable via ordinary call edges."
	releaseReach := g.propagate(func(f *FuncNode) bool { return facts[f].releases })

	for _, fn := range g.sortedFuncs() {
		pf := facts[fn]
		for _, pos := range pf.acquires {
			if pf.discarded[pos] {
				report(pos, "AcquireWorkers grant discarded in %s; the granted workers can never be released", fn.Name)
				continue
			}
			if !releaseReachable(g, fn, facts, releaseReach) {
				report(pos, "AcquireWorkers in %s has no reachable ReleaseWorkers; the grant leaks from the global pool", fn.Name)
			}
		}
	}
}

// releaseReachable walks call edges from start, extended at each visited
// function with the methods of every named struct type it constructs (the
// grant-handoff idiom), looking for a function from which a direct
// ReleaseWorkers call is reachable.
func releaseReachable(g *CallGraph, start *FuncNode, facts map[*FuncNode]*poolFacts, releaseReach map[*FuncNode]bool) bool {
	seen := map[*FuncNode]bool{}
	stack := []*FuncNode{start}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f == nil || seen[f] {
			continue
		}
		seen[f] = true
		if releaseReach[f] {
			return true
		}
		stack = append(stack, f.Callees()...)
		for _, named := range facts[f].constructs {
			ms := types.NewMethodSet(types.NewPointer(named))
			for i := 0; i < ms.Len(); i++ {
				if m, ok := ms.At(i).Obj().(*types.Func); ok {
					stack = append(stack, g.byObj[m])
				}
			}
		}
	}
	return false
}

// poolFactsOf scans one function body for the rule's facts. Acquire anchors
// skip nested function literals (each literal is its own graph node);
// release and construction facts include them, erring toward discharge.
func poolFactsOf(fn *FuncNode) *poolFacts {
	pf := &poolFacts{discarded: map[token.Pos]bool{}}
	if fn.Body == nil {
		return pf
	}
	info := fn.Pkg.Info
	audit := inScope(fn.Pkg.Path, poolScope)
	seenType := map[*types.Named]bool{}
	own := true // false once we descend into a nested literal
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if x.Body == fn.Body {
				return true
			}
			// Nested literal: keep collecting releases/constructions but
			// stop anchoring acquires (the literal node anchors its own).
			wasOwn := own
			own = false
			ast.Inspect(x.Body, visit)
			own = wasOwn
			return false
		case *ast.ExprStmt:
			if call, ok := x.X.(*ast.CallExpr); ok && own && audit && isGateCall(info, call, "AcquireWorkers") {
				pf.discarded[call.Pos()] = true
			}
		case *ast.CallExpr:
			if own && audit && isGateCall(info, x, "AcquireWorkers") {
				pf.acquires = append(pf.acquires, x.Pos())
			}
			if isGateCall(info, x, "ReleaseWorkers") {
				pf.releases = true
			}
		case *ast.CompositeLit:
			t := info.TypeOf(x)
			if t == nil {
				return true
			}
			if named, ok := t.(*types.Named); ok && !seenType[named] {
				if _, isStruct := named.Underlying().(*types.Struct); isStruct {
					seenType[named] = true
					pf.constructs = append(pf.constructs, named)
				}
			}
		}
		return true
	}
	ast.Inspect(fn.Body, visit)
	return pf
}

// isGateCall reports whether call invokes a method named name with the
// WorkerGate shape: AcquireWorkers(int) int or ReleaseWorkers(int). Matching
// is by name and signature, not receiver type, so fixtures and alternative
// gate implementations are held to the same contract.
func isGateCall(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	f, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || f.Name() != name {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 1 {
		return false
	}
	if basic, ok := sig.Params().At(0).Type().(*types.Basic); !ok || basic.Kind() != types.Int {
		return false
	}
	switch name {
	case "AcquireWorkers":
		return sig.Results().Len() == 1
	case "ReleaseWorkers":
		return sig.Results().Len() == 0
	}
	return false
}
