package expr

import (
	"reflect"
	"testing"

	"repro/internal/types"
)

func TestConjunctsFlattening(t *testing.T) {
	a := cmp(EQ, col(0), intLit(1))
	b := cmp(EQ, col(1), intLit(2))
	c := cmp(EQ, col(2), intLit(3))
	e := and(and(a, b), c)
	cj := Conjuncts(e)
	if len(cj) != 3 {
		t.Fatalf("Conjuncts = %d, want 3", len(cj))
	}
	// An OR is a single conjunct.
	if got := Conjuncts(or(a, b)); len(got) != 1 {
		t.Errorf("OR should be one conjunct, got %d", len(got))
	}
	if Conjuncts(nil) != nil {
		t.Error("nil should yield nil")
	}
}

func TestConjoin(t *testing.T) {
	a := cmp(EQ, col(0), intLit(1))
	b := cmp(EQ, col(1), intLit(2))
	if Conjoin() != nil {
		t.Error("empty conjoin should be nil")
	}
	if Conjoin(nil, nil) != nil {
		t.Error("all-nil conjoin should be nil")
	}
	if Conjoin(a) != a {
		t.Error("single conjoin should be identity")
	}
	e := Conjoin(a, nil, b)
	if len(Conjuncts(e)) != 2 {
		t.Error("conjoin of two should have two conjuncts")
	}
}

func TestColumnsUsed(t *testing.T) {
	e := and(
		cmp(EQ, col(3), intLit(1)),
		or(cmp(LT, col(1), col(3)), NewLike(col(7), "a%", false)),
		&InList{Input: col(2), List: []Expr{intLit(1), col(9)}},
		&Arith{Op: Add, L: col(1), R: intLit(0)},
	)
	got := ColumnsUsed(e)
	want := []int{1, 2, 3, 7, 9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ColumnsUsed = %v, want %v", got, want)
	}
}

func TestHasParam(t *testing.T) {
	if HasParam(cmp(EQ, col(0), intLit(1))) {
		t.Error("no param expected")
	}
	if !HasParam(cmp(LE, col(0), &Param{ID: 0})) {
		t.Error("param expected")
	}
	if !HasParam(and(intLit(1), &Not{E: &IsNull{E: &Param{ID: 2}}})) {
		t.Error("nested param expected")
	}
}

func TestRemap(t *testing.T) {
	e := and(
		cmp(EQ, &ColRef{Pos: 10, Name: "a"}, intLit(1)),
		NewLike(&ColRef{Pos: 20}, "x%", false),
		&InList{Input: &ColRef{Pos: 30}, List: []Expr{intLit(5)}},
		&IsNull{E: &ColRef{Pos: 10}},
		&Not{E: &Cmp{Op: LT, L: &Arith{Op: Mul, L: &ColRef{Pos: 20}, R: intLit(2)}, R: intLit(9)}},
	)
	m := Remap(e, func(p int) int { return p / 10 })
	got := ColumnsUsed(m)
	want := []int{1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("remapped columns = %v, want %v", got, want)
	}
	// Original untouched.
	if !reflect.DeepEqual(ColumnsUsed(e), []int{10, 20, 30}) {
		t.Error("Remap mutated the original tree")
	}
	// Name survives remap.
	found := false
	Walk(m, func(n Expr) {
		if c, ok := n.(*ColRef); ok && c.Name == "a" && c.Pos == 1 {
			found = true
		}
	})
	if !found {
		t.Error("named colref lost in remap")
	}
}

func TestRemapPreservesSemantics(t *testing.T) {
	// Shift every column by one and evaluate against a shifted row.
	e := and(cmp(GT, col(0), intLit(5)), cmp(EQ, col(1), strLit("x")))
	shifted := Remap(e, func(p int) int { return p + 1 })
	row := append([]types.Datum{types.Null}, types.NewInt(10), types.NewString("x"))
	v, err := shifted.Eval(nil, row)
	if err != nil || !v.Bool() {
		t.Fatalf("shifted eval = %v, %v", v, err)
	}
}

func TestEquiJoinColumns(t *testing.T) {
	l, r, ok := EquiJoinColumns(cmp(EQ, col(2), col(7)))
	if !ok || l != 2 || r != 7 {
		t.Errorf("equijoin detection failed: %d %d %v", l, r, ok)
	}
	if _, _, ok := EquiJoinColumns(cmp(LT, col(2), col(7))); ok {
		t.Error("< is not an equijoin")
	}
	if _, _, ok := EquiJoinColumns(cmp(EQ, col(2), intLit(1))); ok {
		t.Error("col = const is not an equijoin")
	}
	if _, _, ok := EquiJoinColumns(and()); ok {
		t.Error("AND is not an equijoin")
	}
}

func TestAccept(t *testing.T) {
	accept := func(d types.Datum) bool {
		ok, err := Accept(d)
		if err != nil {
			t.Errorf("Accept(%v): %v", d, err)
		}
		return ok
	}
	if !accept(types.NewBool(true)) {
		t.Error("TRUE accepted")
	}
	if accept(types.NewBool(false)) {
		t.Error("FALSE rejected")
	}
	if accept(types.Null) {
		t.Error("NULL rejected")
	}
	if ok, err := Accept(types.NewInt(1)); ok || err == nil {
		t.Errorf("non-bool: ok=%v err=%v, want an error", ok, err)
	}
}

func TestWalkVisitsAllNodes(t *testing.T) {
	e := and(
		cmp(EQ, col(0), intLit(1)),
		&Not{E: &IsNull{E: col(1)}},
		NewLike(col(2), "%z", false),
	)
	count := 0
	Walk(e, func(Expr) { count++ })
	// and(1) + cmp(1)+col+lit(2) + not(1)+isnull(1)+col(1) + like(1)+col(1) = 9
	if count != 9 {
		t.Errorf("walk visited %d nodes, want 9", count)
	}
	Walk(nil, func(Expr) { t.Error("nil walk should not visit") })
}
