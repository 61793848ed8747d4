package lint

import (
	"go/ast"
	"go/types"
)

// ChargeFlowAnalyzer machine-checks the accounting completeness the PR 3
// "work bit-identical across modes" benchmark assumes. Four obligations,
// all interprocedural:
//
//  1. Every concrete executor.Node implementation whose NextBatch can
//     produce a batch must reach a Meter charge (Add or AddTicks) from
//     NextBatch or Open (materializing operators like sort and hash-agg
//     charge their whole input in Open; streaming ones charge per batch in
//     NextBatch). An uncharged row silently deflates the simulated work the
//     checkpoints compare against.
//  2. Every function that constructs a CheckViolation must reach a write of
//     NodeStats.Violated — EXPLAIN ANALYZE's violation flag comes from that
//     field, and a violation that does not mark its node disappears from
//     the analyze output.
//  3. Every function that extracts a CheckViolation via errors.As must
//     reach an emitter of trace.CheckpointViolated — catching a violation
//     without tracing it breaks the PR 3 violations-traced invariant.
//  4. Every caller of the plan cache's pop.Entry.Invalidate must reach an
//     emitter of trace.CacheInvalidate — an untraced invalidation makes
//     cache verdict streams lie.
//
// An "emitter of kind K" is a function that references the trace.Kind
// constant K and from which a Record(trace.Event) call is reachable.
var ChargeFlowAnalyzer = &Analyzer{
	Name: "chargeflow",
	Doc:  "operator NextBatch paths must reach a Meter charge; violation/checkpoint/invalidation paths must reach their paired trace emission",
	Run:  runChargeFlow,
}

func runChargeFlow(prog *Program, report ReportFunc) {
	g := programGraph(prog)

	nodeIface := findExecutorNodeInterface(prog)
	if nodeIface != nil {
		checkOperatorCharges(g, nodeIface, report)
	}

	recordReach := g.propagate(func(f *FuncNode) bool { return len(f.Sum.Records) > 0 })
	emitterReach := func(kind string) map[*FuncNode]bool {
		return g.propagate(func(f *FuncNode) bool {
			return recordReach[f] && f.Sum.RefsKind(kind)
		})
	}

	// Obligation 2: CheckViolation construction must mark the node.
	violReach := g.propagate(func(f *FuncNode) bool { return len(f.Sum.ViolatedWrites) > 0 })
	for _, fn := range g.sortedFuncs() {
		for _, pos := range fn.Sum.ViolationLits {
			if !violReach[fn] {
				report(pos, "CheckViolation constructed in %s but no NodeStats.Violated write is reachable; the violation will not surface in EXPLAIN ANALYZE", fn.Name)
			}
		}
	}

	// Obligation 3: errors.As(..., **CheckViolation) must trace the violation.
	violatedEmitters := emitterReach("CheckpointViolated")
	for _, fn := range g.sortedFuncs() {
		for _, pos := range fn.Sum.ErrorsAsCV {
			if !violatedEmitters[fn] {
				report(pos, "CheckViolation extracted via errors.As in %s but no trace.CheckpointViolated emission is reachable; caught violations must be traced", fn.Name)
			}
		}
	}

	// Obligation 4: Entry.Invalidate must trace the invalidation.
	invalidateEmitters := emitterReach("CacheInvalidate")
	for _, fn := range g.sortedFuncs() {
		for _, pos := range fn.Sum.InvalidateCalls {
			if !invalidateEmitters[fn] {
				report(pos, "plan-cache Entry.Invalidate called in %s but no trace.CacheInvalidate emission is reachable; invalidations must be traced", fn.Name)
			}
		}
	}
}

// findExecutorNodeInterface locates executor.Node's interface type through
// the loaded packages (directly, or via a fixture package's imports).
func findExecutorNodeInterface(prog *Program) *types.Interface {
	lookup := func(tp *types.Package) *types.Interface {
		if tp == nil || tp.Path() != executorPath {
			return nil
		}
		tn, ok := tp.Scope().Lookup("Node").(*types.TypeName)
		if !ok {
			return nil
		}
		iface, _ := tn.Type().Underlying().(*types.Interface)
		return iface
	}
	for _, pkg := range prog.Packages {
		if pkg.Types == nil {
			continue
		}
		if iface := lookup(pkg.Types); iface != nil {
			return iface
		}
		for _, imp := range pkg.Types.Imports() {
			if iface := lookup(imp); iface != nil {
				return iface
			}
		}
	}
	return nil
}

// checkOperatorCharges enforces obligation 1 over every concrete Node
// implementation declared under the executor path.
func checkOperatorCharges(g *CallGraph, nodeIface *types.Interface, report ReportFunc) {
	chargeReach := g.propagate(func(f *FuncNode) bool { return len(f.Sum.Charges) > 0 })

	for _, pkg := range g.Prog.Packages {
		if pkg.Types == nil || !inScope(pkg.Path, []string{executorPath}) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			T := tn.Type()
			var recv types.Type
			switch {
			case types.Implements(T, nodeIface):
				recv = T
			case types.Implements(types.NewPointer(T), nodeIface):
				recv = types.NewPointer(T)
			default:
				continue
			}
			open := methodNode(g, recv, "Open")
			openCharges := open != nil && chargeReach[open]
			if nb := methodNode(g, recv, "NextBatch"); nb != nil && producesBatches(nb) &&
				!chargeReach[nb] && !openCharges {
				report(nb.Pos, "%s.NextBatch produces rows but no Meter charge is reachable from NextBatch or Open; uncharged rows deflate simulated work", tn.Name())
			}
		}
	}
}

// methodNode resolves a named method of recv to its graph node, or nil.
func methodNode(g *CallGraph, recv types.Type, name string) *FuncNode {
	obj, _, _ := types.LookupFieldOrMethod(recv, true, nil, name)
	f, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return g.byObj[f]
}

// producesBatches reports whether a NextBatch body contains a return whose
// batch result is not the literal nil — i.e. the operator can hand a batch
// upward. Stubs that only ever return (nil, err) are exempt from the charge
// obligation.
func producesBatches(nb *FuncNode) bool {
	if nb.Body == nil {
		return false
	}
	produces := false
	ast.Inspect(nb.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) < 2 {
			return true
		}
		if id, ok := ret.Results[0].(*ast.Ident); ok && id.Name == "nil" {
			return true
		}
		produces = true
		return true
	})
	return produces
}
