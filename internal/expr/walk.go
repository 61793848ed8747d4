package expr

import (
	"sort"

	"repro/internal/types"
)

// Walk calls fn for every node of the expression tree in pre-order.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch n := e.(type) {
	case *Cmp:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case *Logic:
		for _, a := range n.Args {
			Walk(a, fn)
		}
	case *Not:
		Walk(n.E, fn)
	case *IsNull:
		Walk(n.E, fn)
	case *InList:
		Walk(n.Input, fn)
		for _, a := range n.List {
			Walk(a, fn)
		}
	case *Arith:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case *Like:
		Walk(n.Input, fn)
	}
}

// Remap returns a copy of the tree with every column reference's position
// rewritten through f. The optimizer uses it to translate query-global column
// ids into operator-input ordinals just before execution. The input tree is
// not modified.
func Remap(e Expr, f func(pos int) int) Expr {
	switch n := e.(type) {
	case nil:
		return nil
	case *ColRef:
		return &ColRef{Pos: f(n.Pos), Name: n.Name}
	case *Const:
		return n
	case *Param:
		return n
	case *Cmp:
		return &Cmp{Op: n.Op, L: Remap(n.L, f), R: Remap(n.R, f)}
	case *Logic:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = Remap(a, f)
		}
		return &Logic{Op: n.Op, Args: args}
	case *Not:
		return &Not{E: Remap(n.E, f)}
	case *IsNull:
		return &IsNull{E: Remap(n.E, f), Negate: n.Negate}
	case *InList:
		list := make([]Expr, len(n.List))
		for i, a := range n.List {
			list[i] = Remap(a, f)
		}
		return &InList{Input: Remap(n.Input, f), List: list}
	case *Arith:
		return &Arith{Op: n.Op, L: Remap(n.L, f), R: Remap(n.R, f)}
	case *Like:
		return NewLike(Remap(n.Input, f), n.Pattern, n.Negate)
	default:
		return e
	}
}

// BindParams returns a copy of the tree with every parameter marker replaced
// by its bound constant. Markers whose id has no binding are left in place.
// Trees without markers are returned unchanged (no copy). The plan cache uses
// this to estimate a binding's true selectivities from histograms while the
// cached plan itself keeps the markers and stays valid for other bindings.
func BindParams(e Expr, params []types.Datum) Expr {
	if e == nil || len(params) == 0 || !HasParam(e) {
		return e
	}
	return bindParams(e, params)
}

func bindParams(e Expr, params []types.Datum) Expr {
	switch n := e.(type) {
	case nil:
		return nil
	case *Param:
		if n.ID >= 0 && n.ID < len(params) {
			return &Const{Val: params[n.ID]}
		}
		return n
	case *Cmp:
		return &Cmp{Op: n.Op, L: bindParams(n.L, params), R: bindParams(n.R, params)}
	case *Logic:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = bindParams(a, params)
		}
		return &Logic{Op: n.Op, Args: args}
	case *Not:
		return &Not{E: bindParams(n.E, params)}
	case *IsNull:
		return &IsNull{E: bindParams(n.E, params), Negate: n.Negate}
	case *InList:
		list := make([]Expr, len(n.List))
		for i, a := range n.List {
			list[i] = bindParams(a, params)
		}
		return &InList{Input: bindParams(n.Input, params), List: list}
	case *Arith:
		return &Arith{Op: n.Op, L: bindParams(n.L, params), R: bindParams(n.R, params)}
	case *Like:
		return NewLike(bindParams(n.Input, params), n.Pattern, n.Negate)
	default:
		return e
	}
}

// Conjuncts flattens nested ANDs into a list of conjuncts. Non-AND
// expressions come back as a single-element list.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if l, ok := e.(*Logic); ok && l.Op == And {
		var out []Expr
		for _, a := range l.Args {
			out = append(out, Conjuncts(a)...)
		}
		return out
	}
	return []Expr{e}
}

// Conjoin combines predicates with AND; nil and empty inputs collapse away.
func Conjoin(preds ...Expr) Expr {
	var nonNil []Expr
	for _, p := range preds {
		if p != nil {
			nonNil = append(nonNil, p)
		}
	}
	switch len(nonNil) {
	case 0:
		return nil
	case 1:
		return nonNil[0]
	default:
		return &Logic{Op: And, Args: nonNil}
	}
}

// ColumnsUsed returns the sorted set of column positions referenced anywhere
// in the tree.
func ColumnsUsed(e Expr) []int {
	seen := map[int]bool{}
	Walk(e, func(n Expr) {
		if c, ok := n.(*ColRef); ok {
			seen[c.Pos] = true
		}
	})
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// HasParam reports whether the tree contains a parameter marker; predicates
// with markers get default selectivities at optimization time.
func HasParam(e Expr) bool {
	found := false
	Walk(e, func(n Expr) {
		if _, ok := n.(*Param); ok {
			found = true
		}
	})
	return found
}

// EquiJoinColumns recognizes "colA = colB" between exactly two column refs
// and returns their positions. The optimizer uses this to identify hashable
// and mergeable join predicates and index-lookup keys.
func EquiJoinColumns(e Expr) (left, right int, ok bool) {
	c, isCmp := e.(*Cmp)
	if !isCmp || c.Op != EQ {
		return 0, 0, false
	}
	l, lok := c.L.(*ColRef)
	r, rok := c.R.(*ColRef)
	if !lok || !rok {
		return 0, 0, false
	}
	return l.Pos, r.Pos, true
}

// Accept reports whether the datum is a non-NULL TRUE — the filter acceptance
// test under three-valued logic (NULL and FALSE both reject). A value that is
// neither NULL nor boolean is an error.
func Accept(d types.Datum) (bool, error) {
	b, _, err := truth(d)
	return b, err
}
