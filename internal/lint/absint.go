package lint

// Abstract interpretation over the CFG: the value layer under the overflow
// rule. Per function, every tracked local gets an abstract value:
//
//   - an int64 Interval (intervals.go) — also used for bools (0/1) and as a
//     floor/ceil envelope for floats;
//   - zero-path evidence: "a path proves this exactly zero" (the divisor
//     rule's trigger);
//   - the partner a dominating `a > math.MaxInt64/b` comparison proved safe
//     to multiply by.
//
// States are solved by solveForwardVals (dataflow.go): branch conditions
// refine intervals per out-edge (`x > 0`, the MaxInt64/b overflow-guard
// idiom), loop heads widen, and a no-return call (panic, os.Exit,
// log.Fatal) kills the rest of its block. The rule then replays each block
// from its solved in-state, collecting the multiplications, additions and
// divisions with the abstract values in force there.
//
// Tracking discipline: only *types.Var locals, parameters and named results
// of the function itself are tracked, and only while their address is never
// taken and no closure captures them; everything else (fields, globals,
// captured variables) evaluates to the type's top value. Soundness caveat
// (shared with every interval analysis that does not model two's-complement
// wrap): arithmetic is assumed not to overflow when computing ranges — the
// overflow rule exists precisely to flag where that assumption is at risk.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"
)

// absVal is one variable's abstract value.
type absVal struct {
	iv       Interval
	zeroPath bool         // some path proves the value exactly zero (OR'd at joins)
	guard    types.Object // partner proven safe to multiply by (MaxInt64/b idiom)
}

func topVal() absVal { return absVal{iv: FullInterval()} }

func (v absVal) isTop() bool { return v == topVal() }

func joinVal(a, b absVal) absVal {
	o := absVal{iv: a.iv.Join(b.iv), zeroPath: a.zeroPath || b.zeroPath}
	if a.guard != nil && a.guard == b.guard {
		o.guard = a.guard
	}
	return o
}

func widenVal(prev, next absVal) absVal {
	next.iv = prev.iv.Widen(next.iv)
	return next
}

// valState maps tracked objects to abstract values. A nil valState is the
// solver's "unreachable"; a missing key is the object's top value. Stored
// values are normalized: exact top values are deleted.
type valState map[types.Object]absVal

func (s valState) clone() valState {
	c := make(valState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s valState) get(obj types.Object) (absVal, bool) {
	v, ok := s[obj]
	if !ok {
		return topVal(), false
	}
	return v, true
}

func (s valState) set(obj types.Object, v absVal) {
	if v.isTop() {
		delete(s, obj)
		return
	}
	s[obj] = v
}

// join returns the pointwise join of two states (missing key = top; results
// equal to top are dropped).
func (a valState) join(b valState) valState {
	o := make(valState, len(a))
	for k, av := range a {
		bv, ok := b[k]
		if !ok {
			bv = topVal()
		}
		o.set(k, joinVal(av, bv))
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok {
			o.set(k, joinVal(topVal(), bv))
		}
	}
	return o
}

// widen applies interval widening pointwise: prev is the loop head's old
// in-state, next the freshly joined one.
func (prev valState) widen(next valState) valState {
	o := make(valState, len(next))
	for k, nv := range next {
		pv, ok := prev[k]
		if !ok {
			pv = topVal()
		}
		o.set(k, widenVal(pv, nv))
	}
	return o
}

func valStatesEqual(a, b valState) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// --- type helpers --------------------------------------------------------

func basicOf(t types.Type) *types.Basic {
	if t == nil {
		return nil
	}
	b, _ := t.Underlying().(*types.Basic)
	return b
}

func isIntType(t types.Type) bool {
	b := basicOf(t)
	return b != nil && b.Info()&types.IsInteger != 0
}

func isFloatType(t types.Type) bool {
	b := basicOf(t)
	return b != nil && b.Info()&types.IsFloat != 0
}

// basicRange is the value interval of a basic type: sized integers get
// their exact range, unsigned 64-bit the non-negative half, booleans 0/1.
func basicRange(b *types.Basic) Interval {
	switch b.Kind() {
	case types.Bool, types.UntypedBool:
		return Interval{0, 1}
	case types.Int8:
		return typeRange(8, true)
	case types.Int16:
		return typeRange(16, true)
	case types.Int32, types.UntypedRune:
		return typeRange(32, true)
	case types.Uint8:
		return typeRange(8, false)
	case types.Uint16:
		return typeRange(16, false)
	case types.Uint32:
		return typeRange(32, false)
	case types.Uint, types.Uint64, types.Uintptr:
		return Interval{0, math.MaxInt64}
	}
	return FullInterval()
}

// topForType is the no-information value of a type: full intervals clipped
// to the type's representable range.
func topForType(t types.Type) absVal {
	v := topVal()
	if b := basicOf(t); b != nil {
		v.iv = basicRange(b)
	}
	return v
}

// zeroValOf abstracts a type's zero value (var declarations without
// initializer, named results at entry).
func zeroValOf(t types.Type) absVal {
	v := topForType(t)
	if t == nil {
		return v
	}
	if u, ok := t.Underlying().(*types.Basic); ok {
		switch {
		case u.Info()&(types.IsInteger|types.IsFloat) != 0:
			v.iv = ConstInterval(0)
			v.zeroPath = true
		case u.Info()&types.IsBoolean != 0:
			v.iv = ConstInterval(0)
		}
	}
	return v
}

// constToVal abstracts a typed or untyped constant.
func constToVal(cv constant.Value, t types.Type) absVal {
	v := topForType(t)
	switch cv.Kind() {
	case constant.Int:
		if i, exact := constant.Int64Val(cv); exact {
			v.iv = ConstInterval(i)
		} else if constant.Sign(cv) > 0 {
			v.iv = Interval{math.MaxInt64, math.MaxInt64}
		} else {
			v.iv = Interval{math.MinInt64, math.MinInt64}
		}
	case constant.Float:
		f, _ := constant.Float64Val(cv)
		v.iv = floatInterval(f)
	case constant.Bool:
		if constant.BoolVal(cv) {
			v.iv = ConstInterval(1)
		} else {
			v.iv = ConstInterval(0)
		}
	}
	if v.iv == ConstInterval(0) && cv.Kind() != constant.Bool && cv.Kind() != constant.String {
		v.zeroPath = true
	}
	return v
}

// floatInterval envelopes a float64 in an integer interval ([floor, ceil],
// with infinities and huge magnitudes pinned to the sentinels).
func floatInterval(f float64) Interval {
	const lim = float64(math.MaxInt64) // 2^63; anything ≥ is sentinel land
	switch {
	case math.IsNaN(f):
		return FullInterval()
	case f >= lim:
		return Interval{math.MaxInt64, math.MaxInt64}
	case f <= -lim:
		return Interval{math.MinInt64, math.MinInt64}
	}
	return Interval{int64(math.Floor(f)), int64(math.Ceil(f))}
}

// --- collected sites -----------------------------------------------------

type mulAddSite struct {
	pos    token.Pos
	op     token.Token // token.MUL or token.ADD
	xs, ys string      // rendered operands
	xv, yv absVal
	sink   bool // value feeds Meter.AddTicks or a sink parameter
	guard  bool // a dominating a > MaxInt64/b comparison proved the pair safe
}

type divSite struct {
	pos    token.Pos
	op     token.Token // token.QUO or token.REM
	divStr string
	dv     absVal
	intOp  bool // integer division (panics on zero) vs float (silent ±Inf)
}

// valueSites is everything one function's replay collected.
type valueSites struct {
	mulAdds []mulAddSite
	divs    []divSite
}

// returnFact is one evaluated return site, for summary building.
type returnFact struct {
	vals []absVal
	// params[i] is the parameter index result i returned verbatim, or -1.
	params []int
}

// --- the interpreter -----------------------------------------------------

// interp is the per-function abstract interpreter: prescan products
// (trackability, sinks) plus the transfer/refine/eval machinery.
type interp struct {
	va   *valueAnalysis
	fn   *FuncNode
	pkg  *Package
	info *types.Info

	owned    map[types.Object]bool // declared by this function (params/results/locals)
	unstable map[types.Object]bool // address taken or captured by a literal
	sinkObjs map[types.Object]bool // value flows into a tick sink (syntactic)

	namedResults []types.Object // named result objects, entry-seeded

	// replay hooks; nil while solving
	sites *valueSites
	rets  *[]returnFact

	// dead is set by step when a no-return call (panic, os.Exit, log.Fatal)
	// executes: the rest of the block and its out-edges are unreachable.
	dead bool
}

func newInterp(va *valueAnalysis, fn *FuncNode) *interp {
	ip := &interp{
		va:       va,
		fn:       fn,
		pkg:      fn.Pkg,
		info:     fn.Pkg.Info,
		owned:    map[types.Object]bool{},
		unstable: map[types.Object]bool{},
		sinkObjs: map[types.Object]bool{},
	}
	ip.prescan()
	if s := va.sinkObjsByFn[fn]; s != nil {
		ip.sinkObjs = s
	}
	return ip
}

// signature returns the function's type signature (declared or literal).
func (ip *interp) signature() *types.Signature {
	if ip.fn.Obj != nil {
		sig, _ := ip.fn.Obj.Type().(*types.Signature)
		return sig
	}
	if ip.fn.Lit != nil {
		sig, _ := ip.info.TypeOf(ip.fn.Lit).(*types.Signature)
		return sig
	}
	return nil
}

// prescan runs once per function: ownership (params, results, locals) and
// stability (no address taken, no closure capture). Tick-sink seeds are
// recomputed separately by the sink fixpoint (summaryval.go).
func (ip *interp) prescan() {
	sig := ip.signature()
	if sig != nil {
		own := func(tup *types.Tuple) {
			for i := 0; i < tup.Len(); i++ {
				ip.owned[tup.At(i)] = true
			}
		}
		own(sig.Params())
		own(sig.Results())
		if r := sig.Recv(); r != nil {
			ip.owned[r] = true
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if v := sig.Results().At(i); v.Name() != "" && v.Name() != "_" {
				ip.namedResults = append(ip.namedResults, v)
			}
		}
	}
	if ip.fn.Body == nil {
		return
	}
	// Locals: every Defs entry inside the body (but not inside nested
	// literals — those belong to the literal's own node).
	inspectNoLit(ip.fn.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := ip.info.Defs[n]; obj != nil {
				if _, isVar := obj.(*types.Var); isVar {
					ip.owned[obj] = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := unparen(n.X).(*ast.Ident); ok {
					if obj := ip.objOf(id); obj != nil {
						ip.unstable[obj] = true
					}
				}
			}
		}
	})
	// Closure capture: any owned object referenced inside a nested literal
	// can change behind the analysis's back (or observe stale facts).
	ast.Inspect(ip.fn.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if obj := ip.objOf(id); obj != nil && ip.owned[obj] {
					ip.unstable[obj] = true
				}
			}
			return true
		})
		return false
	})
}

// objOf resolves an identifier to its object (use or def).
func (ip *interp) objOf(id *ast.Ident) types.Object {
	if obj := ip.info.Uses[id]; obj != nil {
		return obj
	}
	return ip.info.Defs[id]
}

// tracked reports whether obj participates in the state: a variable this
// function declared whose address is never taken and which no literal
// captures.
func (ip *interp) tracked(obj types.Object) bool {
	if obj == nil || !ip.owned[obj] || ip.unstable[obj] {
		return false
	}
	_, isVar := obj.(*types.Var)
	return isVar
}

// entryState seeds the function entry: named results hold their zero values.
func (ip *interp) entryState() valState {
	st := valState{}
	for _, r := range ip.namedResults {
		if ip.tracked(r) {
			st.set(r, zeroValOf(r.Type()))
		}
	}
	return st
}

// identTarget unwraps parens and numeric conversions down to a tracked
// identifier's object, for guard bookkeeping.
func (ip *interp) identTarget(e ast.Expr) types.Object {
	for {
		e = unparen(e)
		if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
			if tv, ok := ip.info.Types[call.Fun]; ok && tv.IsType() {
				e = call.Args[0]
				continue
			}
		}
		break
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := ip.objOf(id)
	if !ip.tracked(obj) {
		return nil
	}
	return obj
}

// --- transfer ------------------------------------------------------------

// step interprets one CFG node, mutating st. During replay (ip.sites or
// ip.rets non-nil) it also records sites and return facts.
func (ip *interp) step(st valState, n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		ip.assign(st, n)
	case *ast.IncDecStmt:
		v := ip.eval(st, n.X, false)
		one := ConstInterval(1)
		if n.Tok == token.DEC {
			one = ConstInterval(-1)
		}
		if obj := ip.identTarget(n.X); obj != nil {
			nv := topForType(obj.Type())
			nv.iv = v.iv.Add(one)
			ip.setObj(st, obj, nv)
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
			var vals []absVal
			for _, v := range vs.Values {
				vals = append(vals, ip.eval(st, v, false))
			}
			for i, name := range vs.Names {
				obj := ip.info.Defs[name]
				if obj == nil || name.Name == "_" {
					continue
				}
				switch {
				case len(vs.Values) == 0:
					ip.setObj(st, obj, zeroValOf(obj.Type()))
				case i < len(vals) && len(vs.Values) == len(vs.Names):
					ip.setObj(st, obj, vals[i])
				default: // tuple form var a, b = f()
					ip.setObj(st, obj, topForType(obj.Type()))
				}
			}
		}
	case *ast.ExprStmt:
		ip.eval(st, n.X, false)
		if call, ok := unparen(n.X).(*ast.CallExpr); ok && ip.isNoReturn(call) {
			ip.dead = true
		}
	case *ast.SendStmt:
		ip.eval(st, n.Chan, false)
		ip.eval(st, n.Value, false)
	case *ast.RangeStmt:
		ip.rangeBind(st, n)
	case *ast.ReturnStmt:
		ip.returnStep(st, n)
	case *ast.DeferStmt:
		ip.evalCallArgsOnly(st, n.Call)
	case *ast.GoStmt:
		ip.evalCallArgsOnly(st, n.Call)
	case *ast.BranchStmt, *ast.LabeledStmt, *ast.EmptyStmt:
	case ast.Expr:
		ip.eval(st, n, false)
	}
}

// noReturnFuncs are the stdlib functions that terminate the goroutine or
// process: control never reaches the statement after them, so the value
// solver kills the state there (otherwise every `if err != nil { log.Fatal }`
// guard would leak its error path into the code below it).
var noReturnFuncs = map[string]bool{
	"os.Exit":        true,
	"runtime.Goexit": true,
	"log.Fatal":      true,
	"log.Fatalf":     true,
	"log.Fatalln":    true,
	"log.Panic":      true,
	"log.Panicf":     true,
	"log.Panicln":    true,
}

// isNoReturn reports a call that provably does not return: the panic
// builtin or one of noReturnFuncs.
func (ip *interp) isNoReturn(call *ast.CallExpr) bool {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := ip.info.Uses[id].(*types.Builtin); isB {
			return b.Name() == "panic"
		}
	}
	w := &walker{pkg: ip.pkg}
	callee := w.staticCallee(call)
	if callee == nil || callee.Pkg() == nil {
		return false
	}
	return noReturnFuncs[callee.Pkg().Path()+"."+callee.Name()]
}

// evalCallArgsOnly evaluates a deferred/spawned call's arguments (they run
// now) without treating the call itself as executing here.
func (ip *interp) evalCallArgsOnly(st valState, call *ast.CallExpr) {
	for _, a := range call.Args {
		ip.eval(st, a, false)
	}
}

// returnStep evaluates a return's results and, when collecting, records the
// return fact (naked returns read the named result objects).
func (ip *interp) returnStep(st valState, n *ast.ReturnStmt) {
	sig := ip.signature()
	nres := 0
	if sig != nil {
		nres = sig.Results().Len()
	}
	var vals []absVal
	var params []int
	if len(n.Results) == 0 {
		for _, r := range ip.namedResults {
			v, _ := st.get(r)
			vals = append(vals, v)
			params = append(params, -1)
		}
	} else if len(n.Results) == nres {
		for _, e := range n.Results {
			vals = append(vals, ip.eval(st, e, false))
			params = append(params, ip.paramIndexOf(e))
		}
	} else {
		// return f() forwarding a tuple: no per-result precision.
		for _, e := range n.Results {
			ip.eval(st, e, false)
		}
		for i := 0; i < nres; i++ {
			vals = append(vals, topVal())
			params = append(params, -1)
		}
	}
	if ip.rets != nil && len(vals) == nres && nres > 0 {
		*ip.rets = append(*ip.rets, returnFact{vals: vals, params: params})
	}
}

// paramIndexOf reports which parameter e returns verbatim, or -1.
func (ip *interp) paramIndexOf(e ast.Expr) int {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return -1
	}
	obj := ip.objOf(id)
	sig := ip.signature()
	if obj == nil || sig == nil {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return i
		}
	}
	return -1
}

// setObj writes a tracked object's value, clearing any overflow-guard
// pointing at it (the guarded relation dies when either side changes).
func (ip *interp) setObj(st valState, obj types.Object, v absVal) {
	if !ip.tracked(obj) {
		return
	}
	for k, kv := range st {
		if kv.guard == obj {
			kv.guard = nil
			st.set(k, kv)
		}
	}
	st.set(obj, v)
}

// assign interprets an assignment statement.
func (ip *interp) assign(st valState, as *ast.AssignStmt) {
	// Compound ops: x op= y.
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return
		}
		lv := ip.eval(st, as.Lhs[0], false)
		rv := ip.eval(st, as.Rhs[0], false)
		obj := ip.identTarget(as.Lhs[0])
		if obj == nil {
			return
		}
		var binOp token.Token
		switch as.Tok {
		case token.ADD_ASSIGN:
			binOp = token.ADD
		case token.SUB_ASSIGN:
			binOp = token.SUB
		case token.MUL_ASSIGN:
			binOp = token.MUL
		case token.QUO_ASSIGN:
			binOp = token.QUO
		case token.REM_ASSIGN:
			binOp = token.REM
		default:
			ip.setObj(st, obj, topForType(obj.Type()))
			return
		}
		nv := ip.arith(binOp, lv, rv, obj.Type())
		// x *= y / x += y feeding a sink is a site too.
		if ip.sinkObjs[obj] && (binOp == token.MUL || binOp == token.ADD) && isIntType(obj.Type()) && ip.sites != nil {
			ip.sites.mulAdds = append(ip.sites.mulAdds, mulAddSite{
				pos: as.Pos(), op: binOp,
				xs: exprString(as.Lhs[0]), ys: exprString(as.Rhs[0]),
				xv: lv, yv: rv, sink: true,
				guard: ip.mulGuarded(st, as.Lhs[0], as.Rhs[0]),
			})
		}
		ip.setObj(st, obj, nv)
		return
	}

	// Tuple form: x, y := f() / v, ok := m[k] / v, ok := <-ch / v, ok := x.(T)
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		ip.assignTuple(st, as)
		return
	}

	// Pairwise: evaluate every RHS first (Go semantics), then assign.
	vals := make([]absVal, len(as.Rhs))
	for i, r := range as.Rhs {
		sink := false
		if i < len(as.Lhs) {
			if obj := ip.identTarget(as.Lhs[i]); obj != nil && ip.sinkObjs[obj] {
				sink = true
			}
		}
		vals[i] = ip.eval(st, r, sink)
	}
	for i, l := range as.Lhs {
		if i >= len(vals) {
			break
		}
		ip.assignLHS(st, l, vals[i])
	}
}

// assignLHS stores v into an assignment target, evaluating the operands of
// any other target.
func (ip *interp) assignLHS(st valState, l ast.Expr, v absVal) {
	l = unparen(l)
	switch l := l.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := ip.objOf(l)
		if obj == nil {
			return
		}
		nv := v
		// Clip to the target type's representable range (assignment cannot
		// widen past it).
		if b := basicOf(obj.Type()); b != nil {
			nv.iv = nv.iv.Meet(basicRange(b))
			if nv.iv.IsEmpty() {
				nv.iv = basicRange(b)
			}
		}
		ip.setObj(st, obj, nv)
	case *ast.IndexExpr:
		ip.eval(st, l.Index, false)
		ip.eval(st, l.X, false)
	case *ast.SelectorExpr, *ast.StarExpr:
		ip.eval(st, l, false)
	}
}

// assignTuple handles multi-assign from one RHS.
func (ip *interp) assignTuple(st valState, as *ast.AssignStmt) {
	rhs := unparen(as.Rhs[0])
	setAll := func(get func(i int, t types.Type) absVal) {
		for i, l := range as.Lhs {
			id, ok := unparen(l).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := ip.objOf(id)
			if obj == nil {
				continue
			}
			ip.setObj(st, obj, get(i, obj.Type()))
		}
	}
	switch r := rhs.(type) {
	case *ast.CallExpr:
		results := ip.evalCall(st, r, false)
		setAll(func(i int, t types.Type) absVal {
			if i < len(results) {
				return results[i]
			}
			return topForType(t)
		})
	case *ast.TypeAssertExpr, *ast.UnaryExpr, *ast.IndexExpr: // comma-ok forms
		ip.eval(st, r, false)
		setAll(func(i int, t types.Type) absVal {
			v := topForType(t)
			if i == 1 {
				v.iv = Interval{0, 1}
			}
			return v
		})
	default:
		ip.eval(st, rhs, false)
		setAll(func(i int, t types.Type) absVal { return topForType(t) })
	}
}

// rangeBind evaluates a range statement's operand and binds key/value.
func (ip *interp) rangeBind(st valState, n *ast.RangeStmt) {
	xv := ip.eval(st, n.X, false)
	xt := ip.info.TypeOf(n.X)
	var hi int64 = math.MaxInt64
	if xt != nil {
		switch u := xt.Underlying().(type) {
		case *types.Array:
			hi = u.Len()
		case *types.Pointer: // *[N]T
			if arr, ok := u.Elem().Underlying().(*types.Array); ok {
				hi = arr.Len()
			}
		case *types.Basic:
			if u.Info()&types.IsInteger != 0 {
				hi = xv.iv.Hi
			}
		}
	}
	bind := func(e ast.Expr, mk func(t types.Type) absVal) {
		if e == nil {
			return
		}
		id, ok := unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := ip.objOf(id)
		if obj == nil {
			return
		}
		ip.setObj(st, obj, mk(obj.Type()))
	}
	bind(n.Key, func(t types.Type) absVal {
		v := topForType(t)
		if isIntType(t) {
			top := hi
			if top != math.MaxInt64 {
				top = satAdd64(top, -1)
				if top < 0 {
					top = 0
				}
			}
			v.iv = v.iv.Meet(Interval{0, top})
			if v.iv.IsEmpty() {
				v.iv = Interval{0, top}
			}
		}
		return v
	})
	bind(n.Value, topForType)
}

// --- eval ----------------------------------------------------------------

func exprString(e ast.Expr) string { return types.ExprString(e) }

// evalIdent reads an identifier's abstract value.
func (ip *interp) evalIdent(st valState, id *ast.Ident) absVal {
	obj := ip.objOf(id)
	if obj == nil {
		return topVal()
	}
	if v, ok := st[obj]; ok {
		return v
	}
	return topForType(obj.Type())
}

// eval computes an expression's abstract value, recording analysis sites
// along the way when replaying. sink marks that the value feeds tick
// accounting (Meter.AddTicks or a sink parameter) — the overflow rule's
// context bit.
func (ip *interp) eval(st valState, e ast.Expr, sink bool) absVal {
	if e == nil {
		return topVal()
	}
	e = unparen(e)
	// Constants first: any expression the type checker folded is exact.
	if tv, ok := ip.info.Types[e]; ok {
		if tv.Value != nil {
			return constToVal(tv.Value, tv.Type)
		}
	}

	switch x := e.(type) {
	case *ast.Ident:
		return ip.evalIdent(st, x)

	case *ast.BinaryExpr:
		return ip.evalBinary(st, x, sink)

	case *ast.UnaryExpr:
		switch x.Op {
		case token.SUB:
			v := ip.eval(st, x.X, sink)
			out := topForType(ip.info.TypeOf(e))
			out.iv = v.iv.Neg()
			out.zeroPath = v.zeroPath
			return out
		case token.NOT:
			v := ip.eval(st, x.X, false)
			out := topForType(ip.info.TypeOf(e))
			switch v.iv {
			case ConstInterval(1):
				out.iv = ConstInterval(0)
			case ConstInterval(0):
				out.iv = ConstInterval(1)
			}
			return out
		default:
			ip.eval(st, x.X, false)
			return topForType(ip.info.TypeOf(e))
		}

	case *ast.StarExpr:
		ip.eval(st, x.X, false)
		return topForType(ip.info.TypeOf(e))

	case *ast.SelectorExpr:
		ip.eval(st, x.X, false)
		return topForType(ip.info.TypeOf(e))

	case *ast.CallExpr:
		res := ip.evalCall(st, x, sink)
		if len(res) > 0 {
			return res[0]
		}
		return topForType(ip.info.TypeOf(e))

	case *ast.IndexExpr:
		ip.eval(st, x.Index, false)
		ip.eval(st, x.X, false)
		return topForType(ip.info.TypeOf(e))

	case *ast.SliceExpr:
		ip.eval(st, x.X, false)
		ip.eval(st, x.Low, false)
		ip.eval(st, x.High, false)
		ip.eval(st, x.Max, false)
		return topForType(ip.info.TypeOf(e))

	case *ast.CompositeLit:
		ip.evalComposite(st, x)
		return topForType(ip.info.TypeOf(e))

	case *ast.TypeAssertExpr:
		ip.eval(st, x.X, false)
		return topForType(ip.info.TypeOf(e))

	case *ast.KeyValueExpr:
		ip.eval(st, x.Value, false)
		return topVal()
	}
	return topForType(ip.info.TypeOf(e))
}

// mulGuarded reports whether a dominating `a > math.MaxInt64/b` comparison
// (false edge) proved this operand pair safe to multiply.
func (ip *interp) mulGuarded(st valState, x, y ast.Expr) bool {
	xo, yo := ip.identTarget(x), ip.identTarget(y)
	if xo == nil || yo == nil {
		return false
	}
	if v, ok := st[xo]; ok && v.guard == yo {
		return true
	}
	if v, ok := st[yo]; ok && v.guard == xo {
		return true
	}
	return false
}

// evalBinary abstracts arithmetic, recording overflow/div sites.
func (ip *interp) evalBinary(st valState, x *ast.BinaryExpr, sink bool) absVal {
	t := ip.info.TypeOf(x)
	switch x.Op {
	case token.LAND, token.LOR:
		ip.eval(st, x.X, false)
		ip.eval(st, x.Y, false)
		v := topForType(t)
		v.iv = Interval{0, 1}
		return v
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		ip.eval(st, x.X, false)
		ip.eval(st, x.Y, false)
		v := topForType(t)
		v.iv = Interval{0, 1}
		return v
	}

	xv := ip.eval(st, x.X, sink)
	yv := ip.eval(st, x.Y, sink)

	if ip.sites != nil {
		switch x.Op {
		case token.MUL, token.ADD:
			if isIntType(t) {
				ip.sites.mulAdds = append(ip.sites.mulAdds, mulAddSite{
					pos: x.Pos(), op: x.Op,
					xs: exprString(x.X), ys: exprString(x.Y),
					xv: xv, yv: yv, sink: sink,
					guard: ip.mulGuarded(st, x.X, x.Y),
				})
			}
		case token.QUO, token.REM:
			if isIntType(t) || isFloatType(t) {
				ip.sites.divs = append(ip.sites.divs, divSite{
					pos: x.Pos(), op: x.Op, divStr: exprString(x.Y),
					dv: yv, intOp: isIntType(t),
				})
			}
		}
	}
	return ip.arith(x.Op, xv, yv, t)
}

// arith is the interval transfer for a binary arithmetic op.
func (ip *interp) arith(op token.Token, xv, yv absVal, t types.Type) absVal {
	out := topForType(t)
	switch op {
	case token.ADD:
		out.iv = xv.iv.Add(yv.iv)
	case token.SUB:
		out.iv = xv.iv.Sub(yv.iv)
	case token.MUL:
		out.iv = xv.iv.Mul(yv.iv)
	case token.QUO:
		if c := yv.iv; c.Lo == c.Hi && c.Lo > 0 && isIntType(t) {
			out.iv = Interval{quoFloor(xv.iv.Lo, c.Lo), quoFloor(xv.iv.Hi, c.Lo)}
		}
	case token.REM:
		if c := yv.iv; c.Lo == c.Hi && c.Lo > 0 && c.Lo != math.MaxInt64 {
			if xv.iv.Lo >= 0 {
				out.iv = Interval{0, c.Lo - 1}
			} else {
				out.iv = Interval{-(c.Lo - 1), c.Lo - 1}
			}
		}
	case token.AND:
		if xv.iv.Lo >= 0 && yv.iv.Lo >= 0 {
			hi := xv.iv.Hi
			if yv.iv.Hi < hi {
				hi = yv.iv.Hi
			}
			out.iv = Interval{0, hi}
		}
	case token.SHR:
		if xv.iv.Lo >= 0 {
			out.iv = Interval{0, xv.iv.Hi}
		}
	}
	// Clip to the result type's representable range; an empty meet means the
	// transfer proved nothing useful (wrap), fall back to the type range.
	if b := basicOf(t); b != nil {
		clipped := out.iv.Meet(basicRange(b))
		if clipped.IsEmpty() {
			clipped = basicRange(b)
		}
		out.iv = clipped
	}
	return out
}

// quoFloor divides preserving sentinel semantics (±∞ / c = ±∞).
func quoFloor(a, c int64) int64 {
	if a == math.MaxInt64 || a == math.MinInt64 {
		return a
	}
	q := a / c
	if a%c != 0 && (a < 0) != (c < 0) {
		q-- // floor toward -∞ so the interval stays an envelope
	}
	return q
}

// evalComposite evaluates every element of a composite literal exactly
// once: values always, keys only for map literals (struct keys are field
// names).
func (ip *interp) evalComposite(st valState, lit *ast.CompositeLit) {
	isMapLit := false
	if t := ip.info.TypeOf(lit); t != nil {
		_, isMapLit = t.Underlying().(*types.Map)
	}
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if isMapLit {
				ip.eval(st, kv.Key, false)
			}
			ip.eval(st, kv.Value, false)
			continue
		}
		ip.eval(st, el, false)
	}
}

// evalCall abstracts a call: conversions, builtins, then summaries for
// statically known module functions. Returns one absVal per result.
func (ip *interp) evalCall(st valState, call *ast.CallExpr, sink bool) []absVal {
	// Conversion T(x).
	if tv, ok := ip.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		inner := ip.eval(st, call.Args[0], sink)
		return []absVal{ip.convert(inner, tv.Type)}
	}

	// Builtins.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := ip.info.Uses[id].(*types.Builtin); isB {
			return []absVal{ip.evalBuiltin(st, b.Name(), call)}
		}
	}

	ip.eval(st, call.Fun, false)

	// Arguments: sink context flows into Meter.AddTicks args and known sink
	// parameters.
	w := &walker{pkg: ip.pkg}
	callee := w.staticCallee(call)
	argVals := make([]absVal, len(call.Args))
	for i, a := range call.Args {
		argSink := false
		if isMeterAddTicks(ip.info, call) {
			argSink = true
		} else if callee != nil {
			if sp := ip.va.sinkParams[callee]; i < len(sp) && sp[i] {
				argSink = true
			}
		}
		argVals[i] = ip.eval(st, a, argSink)
	}

	// Result values from the callee's value summary.
	sig, _ := ip.info.TypeOf(call.Fun).(*types.Signature)
	nres := 1
	if sig != nil {
		nres = sig.Results().Len()
	}
	out := make([]absVal, nres)
	for i := range out {
		var rt types.Type
		if sig != nil && i < sig.Results().Len() {
			rt = sig.Results().At(i).Type()
		}
		out[i] = topForType(rt)
		if callee != nil {
			out[i] = ip.va.resultVal(callee, i, rt, call, argVals)
		}
	}
	return out
}

// evalBuiltin abstracts the builtins the rules care about.
func (ip *interp) evalBuiltin(st valState, name string, call *ast.CallExpr) absVal {
	switch name {
	case "len", "cap": // the type checker already folded the constant cases
		for _, a := range call.Args {
			ip.eval(st, a, false)
		}
		v := topForType(types.Typ[types.Int])
		v.iv = Interval{0, math.MaxInt64}
		return v
	case "min", "max":
		var out absVal
		for i, a := range call.Args {
			av := ip.eval(st, a, false)
			if i == 0 {
				out = av
				continue
			}
			if name == "min" {
				out.iv = Interval{minI64(out.iv.Lo, av.iv.Lo), minI64(out.iv.Hi, av.iv.Hi)}
			} else {
				out.iv = Interval{maxI64(out.iv.Lo, av.iv.Lo), maxI64(out.iv.Hi, av.iv.Hi)}
			}
		}
		out.zeroPath, out.guard = false, nil
		return out
	default:
		for _, a := range call.Args {
			ip.eval(st, a, false)
		}
	}
	return topForType(ip.info.TypeOf(call))
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// convert abstracts a type conversion. Integer conversions keep the value
// when it provably fits the target (otherwise truncation wraps and nothing
// carries over).
func (ip *interp) convert(inner absVal, dst types.Type) absVal {
	out := topForType(dst)
	if b := basicOf(dst); b != nil && b.Info()&(types.IsInteger|types.IsFloat) != 0 {
		r := basicRange(b)
		if b.Info()&types.IsFloat != 0 {
			r = FullInterval()
		}
		if !inner.iv.IsEmpty() && inner.iv.Lo >= r.Lo && inner.iv.Hi <= r.Hi {
			out.iv = inner.iv
			out.zeroPath = inner.zeroPath
		}
	}
	return out
}

// --- branch refinement ---------------------------------------------------

// refineEdge narrows st with the knowledge that cond evaluated to takeTrue.
// It returns false when the state contradicts the condition — the edge is
// infeasible and must not propagate.
func (ip *interp) refineEdge(st valState, cond ast.Expr, takeTrue bool) bool {
	cond = unparen(cond)
	switch c := cond.(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return ip.refineEdge(st, c.X, !takeTrue)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if takeTrue { // A && B true: both hold
				return ip.refineEdge(st, c.X, true) && ip.refineEdge(st, c.Y, true)
			}
			return true // !(A && B): disjunction, no refinement
		case token.LOR:
			if !takeTrue { // !(A || B): both false
				return ip.refineEdge(st, c.X, false) && ip.refineEdge(st, c.Y, false)
			}
			return true
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			op := c.Op
			if !takeTrue {
				op = negateCmp(op)
			}
			return ip.refineCmp(st, op, c.X, c.Y)
		}
	case *ast.Ident: // if ok { ... }
		obj := ip.identTarget(c)
		if obj == nil {
			return true
		}
		v, _ := st.get(obj)
		want := ConstInterval(1)
		if !takeTrue {
			want = ConstInterval(0)
		}
		met := v.iv.Meet(want)
		if met.IsEmpty() {
			return false
		}
		v.iv = met
		st.set(obj, v)
		return true
	}
	return true
}

func negateCmp(op token.Token) token.Token {
	switch op {
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	case token.LSS:
		return token.GEQ
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.GEQ:
		return token.LSS
	}
	return op
}

// flipCmp mirrors a comparison: x OP y == y FLIP(OP) x.
func flipCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	}
	return op // EQL/NEQ symmetric
}

// refineCmp applies `x op y` (already normalized for the edge's truth).
func (ip *interp) refineCmp(st valState, op token.Token, x, y ast.Expr) bool {
	// Overflow-guard idiom: after `if a > math.MaxInt64/b` failed, the pair
	// (a, b) multiplies safely. Detect the normalized false-edge ops.
	if op == token.LEQ {
		ip.noteMulGuard(st, x, y)
	}
	if op == token.GEQ {
		ip.noteMulGuard(st, y, x)
	}

	// Numeric refinement, both directions.
	ok1 := ip.refineNumeric(st, op, x, y)
	ok2 := ip.refineNumeric(st, flipCmp(op), y, x)
	return ok1 && ok2
}

// noteMulGuard records `a <= math.MaxInt64 / b` on both operands.
func (ip *interp) noteMulGuard(st valState, a, quo ast.Expr) {
	q, ok := unparen(quo).(*ast.BinaryExpr)
	if !ok || q.Op != token.QUO {
		return
	}
	tv, ok := ip.info.Types[unparen(q.X)]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return
	}
	if c, exact := constant.Int64Val(tv.Value); !exact || c != math.MaxInt64 {
		return
	}
	ao, bo := ip.identTarget(a), ip.identTarget(q.Y)
	if ao == nil || bo == nil {
		return
	}
	av, _ := st.get(ao)
	bv, _ := st.get(bo)
	av.guard, bv.guard = bo, ao
	st.set(ao, av)
	st.set(bo, bv)
}

// refineNumeric narrows a tracked target's interval with `target op other`.
func (ip *interp) refineNumeric(st valState, op token.Token, target, other ast.Expr) bool {
	obj := ip.identTarget(target)
	if obj == nil {
		return true
	}
	oiv := ip.eval(st, other, false).iv
	if oiv.IsEmpty() {
		return true
	}

	v, _ := st.get(obj)
	cur := v.iv
	isFloat := isFloatType(obj.Type())

	var cons Interval
	pointOther := oiv.Lo == oiv.Hi && oiv.BoundedBelow() && oiv.BoundedAbove()
	switch op {
	case token.EQL:
		cons = oiv
	case token.NEQ:
		cons = FullInterval()
		if pointOther {
			if cur.Lo == oiv.Lo && cur.Lo != math.MinInt64 {
				cons.Lo = oiv.Lo + 1
			}
			if cur.Hi == oiv.Lo && cur.Hi != math.MaxInt64 {
				cons.Hi = oiv.Lo - 1
			}
		}
	case token.LSS:
		hi := oiv.Hi
		if hi != math.MaxInt64 && !isFloat {
			hi = satAdd64(hi, -1)
		}
		cons = Interval{math.MinInt64, hi}
	case token.LEQ:
		cons = Interval{math.MinInt64, oiv.Hi}
	case token.GTR:
		lo := oiv.Lo
		if lo != math.MinInt64 && !isFloat {
			lo = satAdd64(lo, 1)
		}
		cons = Interval{lo, math.MaxInt64}
	case token.GEQ:
		cons = Interval{oiv.Lo, math.MaxInt64}
	default:
		return true
	}

	met := cur.Meet(cons)
	if met.IsEmpty() && !isFloat {
		return false // infeasible edge
	}
	if met.IsEmpty() {
		met = cur // float envelopes are approximate; never prune on them
	}

	// Zero-path bookkeeping: a refinement that excludes zero clears the
	// evidence; `== 0` asserts it. Floats are dense, so x > 0 excludes zero
	// even though the integer envelope [0, ∞) still contains it.
	zeroOther := pointOther && oiv.Lo == 0
	switch {
	case op == token.EQL && zeroOther:
		v.zeroPath = true
	case !met.Contains(0),
		zeroOther && op == token.NEQ,
		isFloat && zeroOther && (op == token.GTR || op == token.LSS):
		v.zeroPath = false
	}

	v.iv = met
	st.set(obj, v)
	return true
}

// --- per-function analysis ----------------------------------------------

// funcValues is one function's solved value analysis.
type funcValues struct {
	ins       []valState
	converged bool
}

// solve runs the branch-sensitive solver over the function's CFG.
func (ip *interp) solve() *funcValues {
	cfg := ip.va.g.FuncCFG(ip.fn)
	if cfg == nil {
		return &funcValues{converged: true}
	}
	ins, converged := solveForwardVals(cfg, ip.entryState(),
		func(b *CFGBlock, in valState) valState {
			ip.dead = false
			for _, n := range b.Nodes {
				ip.step(in, n)
				if ip.dead {
					return nil // no-return call: out-edges unreachable
				}
			}
			return in
		},
		func(b *CFGBlock, kind edgeKind, out valState) (valState, bool) {
			ok := ip.refineEdge(out, b.Branch, kind == edgeTrue)
			return out, ok
		},
	)
	return &funcValues{ins: ins, converged: converged}
}

// replay walks every reachable block from its solved in-state with the
// current hooks (sites/rets) active. Unreachable blocks are skipped: code
// the analysis proved dead cannot produce real findings.
func (ip *interp) replay(fv *funcValues) {
	cfg := ip.va.g.FuncCFG(ip.fn)
	if cfg == nil {
		return
	}
	for _, b := range cfg.Blocks {
		if b.Index >= len(fv.ins) {
			break
		}
		in := fv.ins[b.Index]
		if in == nil {
			continue
		}
		st := in.clone()
		ip.dead = false
		for _, n := range b.Nodes {
			ip.step(st, n)
			if ip.dead {
				break // nothing after a no-return call executes
			}
		}
	}
}
