package expr

import (
	"repro/internal/schema"
	"repro/internal/types"
)

// Filter is a predicate compiled for one execution: its conjuncts in AND
// order, each comparison between columns, constants and bound parameters
// resolved to operand positions and values. Test gives exactly the keep
// decision and the error that evaluating the predicate with Eval and
// accepting the value with Accept would give. A Filter is read-only once
// compiled.
type Filter struct {
	ctx  *Context
	conj []conjunct
}

// conjunct is one AND-ed term. A resolved comparison reads its left operand
// from row[l], or from lv when l is -1, and its right one likewise; e is the
// term itself, evaluated when the term did not resolve or a position is past
// the end of the row, so that ColRef's error surfaces.
type conjunct struct {
	e        Expr
	resolved bool
	op       CmpOp
	l, r     int
	lv, rv   types.Datum
}

// Compile flattens e into its conjuncts and resolves every comparison whose
// operands are columns, constants or parameters bound in ctx. Parameter
// bindings are read once, here: ctx must not change while the Filter is in
// use. A nil e compiles to a nil Filter, which keeps every row.
func Compile(e Expr, ctx *Context) *Filter {
	if e == nil {
		return nil
	}
	terms := Conjuncts(e)
	f := &Filter{ctx: ctx, conj: make([]conjunct, len(terms))}
	for i, t := range terms {
		c := &f.conj[i]
		c.e = t
		if cmp, ok := t.(*Cmp); ok {
			var lok, rok bool
			c.l, c.lv, lok = operand(cmp.L, ctx)
			c.r, c.rv, rok = operand(cmp.R, ctx)
			c.op, c.resolved = cmp.Op, lok && rok
		}
	}
	return f
}

// operand resolves one side of a comparison: a column's position, or the
// value of a constant or bound parameter at position -1.
func operand(e Expr, ctx *Context) (int, types.Datum, bool) {
	switch o := e.(type) {
	case *ColRef:
		return o.Pos, types.Null, o.Pos >= 0
	case *Const:
		return -1, o.Val, true
	case *Param:
		v, err := ctx.Param(o.ID)
		return -1, v, err == nil
	}
	return 0, types.Null, false
}

// Len returns the number of conjuncts, the predicate count the meter
// charges per row.
func (f *Filter) Len() int {
	if f == nil {
		return 0
	}
	return len(f.conj)
}

// Test reports whether row satisfies the filter: TestPair(row, nil, nil).
func (f *Filter) Test(row schema.Row) (bool, error) {
	return f.TestPair(row, nil, nil)
}

// TestPair reports whether the joined row l followed by r satisfies the
// filter, reading both rows in place: a resolved conjunct takes position p
// from l[p], or from r[p-len(l)] when p >= len(l). Only a conjunct that did
// not resolve needs the joined row; it is built in *scratch once per call,
// which may be nil when r is empty. Conjuncts run in order under Logic's AND
// rule: the first FALSE or error ends the test, and a NULL rejects the row
// but the later conjuncts still run, since one of them may fail.
func (f *Filter) TestPair(l, r schema.Row, scratch *schema.Row) (bool, error) {
	if f == nil {
		return true, nil
	}
	n := len(l) + len(r)
	joined := l
	keep := true
	for i := range f.conj {
		c := &f.conj[i]
		if c.resolved && c.l < n && c.r < n {
			a, b := &c.lv, &c.rv
			if c.l >= 0 {
				a = at(l, r, c.l)
			}
			if c.r >= 0 {
				b = at(l, r, c.r)
			}
			if a.IsNull() || b.IsNull() {
				keep = false
				continue
			}
			rel, err := a.Compare(*b)
			if err != nil {
				return false, err
			}
			if !c.op.holds(rel) {
				return false, nil
			}
			continue
		}
		if len(joined) < n {
			joined = append(append((*scratch)[:0], l...), r...)
			*scratch = joined
		}
		v, err := c.e.Eval(f.ctx, joined)
		if err != nil {
			return false, err
		}
		ok, known, err := truth(v)
		if err != nil || (known && !ok) {
			return false, err
		}
		keep = keep && known
	}
	return keep, nil
}

// at returns the datum at position p of the joined row l followed by r.
func at(l, r schema.Row, p int) *types.Datum {
	if p < len(l) {
		return &l[p]
	}
	return &r[p-len(l)]
}
