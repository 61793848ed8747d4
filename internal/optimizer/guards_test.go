package optimizer

import (
	"math"
	"strings"
	"testing"
)

// TestCrossoverBoundsPinned is the dedupe-refactor regression: the shared
// edge-cost closures in narrowValidity must produce bit-identical bounds to
// the standalone searches, and both are pinned to the exact values the
// original per-call CostWithEdgeCard implementation produced on this fixed
// plan pair.
func TestCrossoverBoundsPinned(t *testing.T) {
	popt, palt, m := nljnVsHsjn(100)
	const wantHi = 3409.0909090909095
	if ub := m.upperCrossover(popt, 0, palt, 0); ub != wantHi {
		t.Errorf("upperCrossover = %v, want exactly %v", ub, wantHi)
	}
	if lb := m.lowerCrossover(popt, 0, palt, 0); lb != 0 {
		t.Errorf("lowerCrossover = %v, want exactly 0", lb)
	}
	m.narrowValidity(popt, palt)
	v := popt.EdgeValidity(0)
	if v.Hi != wantHi || v.Lo != 0 {
		t.Errorf("narrowValidity range = [%v,%v], want exactly [0,%v]", v.Lo, v.Hi, wantHi)
	}
}

// TestUnboundedRangesSurviveCloneAndExplain: ±Inf validity bounds must round
// trip through CloneNode and render in Explain without corrupting the range.
func TestUnboundedRangesSurviveCloneAndExplain(t *testing.T) {
	popt, _, _ := nljnVsHsjn(100)
	popt.SetEdgeValidity(0, UnboundedRange())
	popt.SetEdgeValidity(1, Range{Lo: 5, Hi: math.Inf(1)})
	c := CloneNode(popt)
	if v := c.EdgeValidity(0); v.Lo != 0 || !math.IsInf(v.Hi, 1) {
		t.Errorf("clone corrupted unbounded range: %+v", v)
	}
	if v := c.EdgeValidity(1); v.Lo != 5 || !math.IsInf(v.Hi, 1) {
		t.Errorf("clone corrupted half-open range: %+v", v)
	}
	// Mutating the clone's ranges must not alias the original.
	c.SetEdgeValidity(0, Range{Lo: 1, Hi: 2})
	if v := popt.EdgeValidity(0); v.Lo != 0 || !math.IsInf(v.Hi, 1) {
		t.Errorf("clone aliases the original's validity slice: %+v", v)
	}
	if s := Explain(popt, nil); strings.Contains(s, "NaN") {
		t.Errorf("explain rendered NaN for infinite bounds:\n%s", s)
	}
}

// TestCollectGuardsSkipsUncheckableEdges: the index-NLJN probe edge sees only
// matching rows, so even a bounded validity range there must not become a
// reuse guard.
func TestCollectGuardsSkipsUncheckableEdges(t *testing.T) {
	popt, _, _ := nljnVsHsjn(100)
	popt.SetEdgeValidity(0, Range{Lo: 10, Hi: 1000})
	popt.SetEdgeValidity(1, Range{Lo: 1, Hi: 2}) // probe edge: must be ignored
	gs := CollectGuards(popt)
	if len(gs) != 1 {
		t.Fatalf("want 1 guard (outer edge only), got %d: %+v", len(gs), gs)
	}
	if gs[0].Tables != 0b01 || gs[0].Range.Lo != 10 || gs[0].Range.Hi != 1000 {
		t.Errorf("wrong guard: %+v", gs[0])
	}
	if gs[0].EstCard != 100 {
		t.Errorf("guard estimate = %v, want 100", gs[0].EstCard)
	}
}

// TestCollectGuardsIntersectsSharedSubsets: two bounded edges over the same
// table subset must intersect into one tightest guard.
func TestCollectGuardsIntersectsSharedSubsets(t *testing.T) {
	m := &CostModel{Params: DefaultCostParams()}
	leaf := mkLeaf(100, 100, 0b01)
	inner := mkLeaf(1000, 1000, 0b10)
	join := &Plan{Op: OpHSJN, Children: []*Plan{leaf, inner}, EquiLeft: []int{0}, EquiRight: []int{1},
		Cols: []int{0, 1}, Card: 500, tables: 0b11, ordered: -1}
	m.finishCosting(join)
	join.SetEdgeValidity(0, Range{Lo: 10, Hi: 5000})
	sort := &Plan{Op: OpSort, Children: []*Plan{join}, SortKeys: []SortKey{{Col: 0}},
		Cols: []int{0, 1}, Card: 500, tables: 0b11, ordered: 0}
	m.finishCosting(sort)
	top := &Plan{Op: OpNLJN, Children: []*Plan{leaf, sort}, Cols: []int{0, 1},
		Card: 500, tables: 0b11, ordered: -1}
	m.finishCosting(top)
	top.SetEdgeValidity(0, Range{Lo: 50, Hi: 2000}) // same subset {0b01} as join's edge 0

	gs := CollectGuards(top)
	var leafGuard *Guard
	for i := range gs {
		if gs[i].Tables == 0b01 {
			leafGuard = &gs[i]
		}
	}
	if leafGuard == nil {
		t.Fatalf("no guard for subset 0b01: %+v", gs)
	}
	if leafGuard.Range.Lo != 50 || leafGuard.Range.Hi != 2000 {
		t.Errorf("guards over a shared subset must intersect to [50,2000], got %+v", leafGuard.Range)
	}
}

// TestGuardRangesContainEstimates: for a real optimized plan, every collected
// guard's range must contain the estimate it was derived from (narrowing
// searches outward from the estimate, so the estimate always stays inside).
func TestGuardRangesContainEstimates(t *testing.T) {
	cat := fixture(t)
	q := selectiveJoinQuery(t, cat, 10)
	plan, err := New(cat).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range CollectGuards(plan) {
		if !g.Range.Contains(g.EstCard) {
			t.Errorf("guard %+v excludes its own estimate", g)
		}
	}
}

// BenchmarkOptimize measures a full Optimize call over the three-table
// fixture — the optimizer fast path's microbenchmark.
func BenchmarkOptimize(b *testing.B) {
	cat := fixture(b)
	q := selectiveJoinQuery(b, cat, 10)
	opt := New(cat)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Optimize(q); err != nil {
			b.Fatal(err)
		}
	}
}
