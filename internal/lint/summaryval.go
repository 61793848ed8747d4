package lint

// Interprocedural composition of the value layer. Each declared function
// gets a ValueSummary — per-result interval and identity-param forwarding —
// built from its solved return states and consumed by callers' abstract
// interpreters (absint.go) at statically resolved call sites.
//
// The analysis runs in three phases over the §10 call graph's canonical
// function order (sortedFuncs — position-sorted, so results and therefore
// findings are deterministic):
//
//  1. Sink fixpoint (syntactic): which parameters flow into
//     (*executor.Meter).AddTicks. Backward closure through plain
//     assignments but NOT through call arguments — a value laundered
//     through a helper (e.g. a saturating multiply) is the helper's
//     responsibility, so wrapping arithmetic in a checked helper is how
//     engine code discharges the overflow rule without an allow.
//  2. Summary fixpoint: solve every function, rebuild its summary from the
//     evaluated return sites, repeat until summaries stop changing
//     (bounded; summaries only feed result values, so a stale round loses
//     precision, never soundness).
//  3. Site collection: one final solve+replay per function with the site
//     hooks armed, producing the mulAdd/div site lists the overflow rule
//     walks.
//
// programValues memoizes per Program, mirroring programGraph.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ResultFact summarizes one result position of a function.
type ResultFact struct {
	IV    Interval // join of the result's intervals over all returns
	Param int      // parameter returned verbatim by every return, or -1
}

// ValueSummary is a function's param→result value transfer.
type ValueSummary struct {
	Results []ResultFact
}

func summariesEqual(a, b *ValueSummary) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			return false
		}
	}
	return true
}

// valueAnalysis is the module-wide value layer: summaries, sink parameters
// and per-function site lists, built once per Program.
type valueAnalysis struct {
	g *CallGraph

	sinkParams   map[*types.Func][]bool
	sinkObjsByFn map[*FuncNode]map[types.Object]bool
	summaries    map[*types.Func]*ValueSummary
	sites        map[*FuncNode]*valueSites
	funcs        []*FuncNode // canonical order
	nonConverged map[*FuncNode]bool
}

// valueAnalyses memoizes per Program. Run drives analyzers sequentially, so
// no locking is needed (same discipline as callGraphs).
var valueAnalyses = map[*Program]*valueAnalysis{}

func programValues(prog *Program) *valueAnalysis {
	if va, ok := valueAnalyses[prog]; ok {
		return va
	}
	va := &valueAnalysis{
		g:            programGraph(prog),
		sinkParams:   map[*types.Func][]bool{},
		sinkObjsByFn: map[*FuncNode]map[types.Object]bool{},
		summaries:    map[*types.Func]*ValueSummary{},
		sites:        map[*FuncNode]*valueSites{},
		nonConverged: map[*FuncNode]bool{},
	}
	va.run()
	valueAnalyses[prog] = va
	return va
}

// summaryRounds bounds the interprocedural fixpoint. Call chains deeper
// than this lose precision at the boundary, never correctness.
const summaryRounds = 4

func (va *valueAnalysis) run() {
	va.funcs = va.g.sortedFuncs()
	va.computeSinks()
	ips := make(map[*FuncNode]*interp, len(va.funcs))
	for _, fn := range va.funcs {
		ips[fn] = newInterp(va, fn)
	}
	for round := 0; round < summaryRounds; round++ {
		changed := false
		for _, fn := range va.funcs {
			if fn.Obj == nil {
				continue // literals and synthetic init nodes have no call sites to summarize
			}
			sum, _, _ := va.analyzeFn(ips[fn], false)
			if sum == nil {
				continue
			}
			if !summariesEqual(va.summaries[fn.Obj], sum) {
				va.summaries[fn.Obj] = sum
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, fn := range va.funcs {
		_, sites, converged := va.analyzeFn(ips[fn], true)
		va.sites[fn] = sites
		if !converged {
			va.nonConverged[fn] = true
		}
	}
}

// analyzeFn solves one function and replays it, returning the rebuilt
// summary (nil for literals), collected sites (nil unless requested), and
// whether the solver converged.
func (va *valueAnalysis) analyzeFn(ip *interp, collectSites bool) (*ValueSummary, *valueSites, bool) {
	fv := ip.solve()
	var rets []returnFact
	ip.rets = &rets
	var sites *valueSites
	if collectSites {
		sites = &valueSites{}
		ip.sites = sites
	}
	ip.replay(fv)
	ip.rets, ip.sites = nil, nil
	var sum *ValueSummary
	if ip.fn.Obj != nil {
		if sig := ip.signature(); sig != nil {
			sum = buildSummary(sig, rets)
		}
	}
	return sum, sites, fv.converged
}

// buildSummary folds a function's evaluated return sites into per-result
// facts.
func buildSummary(sig *types.Signature, rets []returnFact) *ValueSummary {
	sum := &ValueSummary{Results: make([]ResultFact, sig.Results().Len())}
	for i := range sum.Results {
		iv, param := EmptyInterval(), -2
		for _, r := range rets {
			iv = iv.Join(r.vals[i].iv)
			switch {
			case param == -2:
				param = r.params[i]
			case param != r.params[i]:
				param = -1
			}
		}
		// No return sites, or variadic identity forwarding (positionally
		// unreliable): no forwarding fact.
		if param == -2 || (param >= 0 && sig.Variadic() && param >= sig.Params().Len()-1) {
			param = -1
		}
		if iv.IsEmpty() {
			iv = FullInterval()
		}
		sum.Results[i] = ResultFact{IV: iv, Param: param}
	}
	return sum
}

// --- summary consumption (called from absint's evalCall) -----------------

// resultVal abstracts result i of a call to callee given the evaluated
// arguments: identity-forwarded parameters carry the argument's value,
// otherwise the summary's joined facts apply, always clipped to the
// declared result type.
func (va *valueAnalysis) resultVal(callee *types.Func, i int, rt types.Type, call *ast.CallExpr, argVals []absVal) absVal {
	v := topForType(rt)
	sum := va.summaries[callee]
	if sum == nil || i >= len(sum.Results) {
		return v
	}
	f := sum.Results[i]
	if f.Param >= 0 && f.Param < len(argVals) && !call.Ellipsis.IsValid() {
		av := argVals[f.Param]
		if met := av.iv.Meet(v.iv); !met.IsEmpty() {
			v.iv = met
			v.zeroPath = av.zeroPath
		}
		return v
	}
	if met := f.IV.Meet(v.iv); !met.IsEmpty() {
		v.iv = met
	}
	return v
}

// --- tick-sink fixpoint --------------------------------------------------

// isMeterAddTicks reports a (*executor.Meter).AddTicks call.
func isMeterAddTicks(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	f, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || f.Name() != "AddTicks" {
		return false
	}
	pkgPath, typeName := methodRecv(f)
	return pkgPath == executorPath && typeName == "Meter"
}

// sinkRounds bounds the interprocedural sink fixpoint (sink-ness propagates
// one call edge per round; metering call chains are shallow).
const sinkRounds = 10

// computeSinks runs the module-wide sink fixpoint: a function's parameter
// is a tick sink if its value flows (through plain assignments) into an
// AddTicks argument or into another function's sink parameter.
func (va *valueAnalysis) computeSinks() {
	for round := 0; round < sinkRounds; round++ {
		changed := false
		for _, fn := range va.funcs {
			if fn.Body == nil {
				continue
			}
			objs := va.sinkObjsFor(fn)
			if !objSetsEqual(va.sinkObjsByFn[fn], objs) {
				va.sinkObjsByFn[fn] = objs
				changed = true
			}
			if fn.Obj == nil {
				continue
			}
			sig, ok := fn.Obj.Type().(*types.Signature)
			if !ok {
				continue
			}
			sp := make([]bool, sig.Params().Len())
			for i := range sp {
				sp[i] = objs[sig.Params().At(i)]
			}
			if !boolsEqual(va.sinkParams[fn.Obj], sp) {
				va.sinkParams[fn.Obj] = sp
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

func objSetsEqual(a, b map[types.Object]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sinkAssign is one plain assignment edge for the backward closure.
type sinkAssign struct {
	lhs types.Object
	rhs ast.Expr
}

// sinkObjsFor computes one function's sink objects under the current
// sinkParams: seeds from AddTicks/sink-param call arguments, closed
// backward over plain assignments.
func (va *valueAnalysis) sinkObjsFor(fn *FuncNode) map[types.Object]bool {
	info := fn.Pkg.Info
	w := &walker{pkg: fn.Pkg}
	mark := map[types.Object]bool{}
	var assigns []sinkAssign

	record := func(l, r ast.Expr) {
		id, ok := unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if _, isVar := obj.(*types.Var); isVar {
			assigns = append(assigns, sinkAssign{lhs: obj, rhs: r})
		}
	}

	inspectNoLit(fn.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isMeterAddTicks(info, n) {
				for _, a := range n.Args {
					addSinkRoots(info, a, mark)
				}
				return
			}
			callee := w.staticCallee(n)
			if callee == nil {
				return
			}
			sp := va.sinkParams[callee]
			for i, a := range n.Args {
				if i < len(sp) && sp[i] {
					addSinkRoots(info, a, mark)
				}
			}
		case *ast.AssignStmt:
			switch {
			case n.Tok == token.ASSIGN || n.Tok == token.DEFINE:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						record(n.Lhs[i], n.Rhs[i])
					}
				}
			case len(n.Lhs) == 1 && len(n.Rhs) == 1:
				record(n.Lhs[0], n.Rhs[0]) // compound assign: x op= rhs
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != len(vs.Values) {
					continue
				}
				for i := range vs.Names {
					record(vs.Names[i], vs.Values[i])
				}
			}
		}
	})

	// Backward closure: if the LHS is a sink, the RHS roots are sinks.
	for {
		changed := false
		for _, a := range assigns {
			if mark[a.lhs] && addSinkRoots(info, a.rhs, mark) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return mark
}

// addSinkRoots marks the identifier roots of a sink-feeding expression,
// descending through parens, arithmetic and type conversions but stopping
// at real calls (the callee's own sink parameters handle those), selectors,
// indexes and literals. Reports whether anything new was marked.
func addSinkRoots(info *types.Info, e ast.Expr, mark map[types.Object]bool) bool {
	changed := false
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			if v, ok := obj.(*types.Var); ok && !mark[v] {
				mark[v] = true
				changed = true
			}
		case *ast.BinaryExpr:
			walk(x.X)
			walk(x.Y)
		case *ast.UnaryExpr:
			if x.Op == token.SUB || x.Op == token.ADD || x.Op == token.XOR {
				walk(x.X)
			}
		case *ast.CallExpr:
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				walk(x.Args[0]) // conversion: the value flows through
			}
		}
	}
	walk(e)
	return changed
}
