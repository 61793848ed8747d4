package optimizer

import (
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/types"
)

// fixture: a skewed two-table join (big fact, small dim) plus a third table,
// mirroring the situations the paper's examples use.
func fixture(t testing.TB) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	dim, err := c.CreateTable("dim", schema.New(
		schema.Column{Name: "d_id", Type: types.KindInt},
		schema.Column{Name: "d_tag", Type: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		dim.Heap.MustInsert(schema.Row{types.NewInt(int64(i)), types.NewString("tag")})
	}
	fact, err := c.CreateTable("fact", schema.New(
		schema.Column{Name: "f_id", Type: types.KindInt},
		schema.Column{Name: "f_dim", Type: types.KindInt},
		schema.Column{Name: "f_val", Type: types.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		fact.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 100)),
			types.NewFloat(float64(i)),
		})
	}
	other, err := c.CreateTable("other", schema.New(
		schema.Column{Name: "o_id", Type: types.KindInt},
		schema.Column{Name: "o_fact", Type: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		other.Heap.MustInsert(schema.Row{types.NewInt(int64(i)), types.NewInt(int64(i * 10))})
	}
	for _, ix := range [][3]string{
		{"dim_pk", "dim", "d_id"},
		{"fact_pk", "fact", "f_id"},
		{"fact_dim", "fact", "f_dim"},
		{"other_pk", "other", "o_id"},
	} {
		if _, err := c.CreateBTreeIndex(ix[0], ix[1], ix[2]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return c
}

func selectiveJoinQuery(t testing.TB, cat *catalog.Catalog, hi int64) *logical.Query {
	t.Helper()
	b := logical.NewBuilder(cat)
	b.AddTable("dim", "d")
	b.AddTable("fact", "f")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("d", "d_id"), R: b.Col("f", "f_dim")})
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("d", "d_id"), R: &expr.Const{Val: types.NewInt(hi)}})
	b.SelectCol("d", "d_tag")
	b.SelectCol("f", "f_val")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestAccessPathSelection(t *testing.T) {
	cat := fixture(t)
	// Highly selective predicate on an indexed column → index scan.
	b := logical.NewBuilder(cat)
	b.AddTable("fact", "f")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("f", "f_id"), R: &expr.Const{Val: types.NewInt(5)}})
	b.SelectCol("f", "f_val")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(cat).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count(OpIndexScan) != 1 {
		t.Errorf("selective predicate should use index scan:\n%s", Explain(p, q))
	}
	// Unselective scan → table scan.
	b2 := logical.NewBuilder(cat)
	b2.AddTable("fact", "f")
	b2.Where(&expr.Cmp{Op: expr.GT, L: b2.Col("f", "f_val"), R: &expr.Const{Val: types.NewFloat(-1)}})
	b2.SelectCol("f", "f_val")
	q2, _ := b2.Build()
	p2, err := New(cat).Optimize(q2)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Count(OpTableScan) != 1 {
		t.Errorf("unselective predicate should use table scan:\n%s", Explain(p2, q2))
	}
}

func TestJoinMethodShiftsWithSelectivity(t *testing.T) {
	cat := fixture(t)
	// Tiny outer → index NLJN into the fact table should win.
	qSmall := selectiveJoinQuery(t, cat, 2)
	pSmall, err := New(cat).Optimize(qSmall)
	if err != nil {
		t.Fatal(err)
	}
	nljn := 0
	pSmall.Walk(func(p *Plan) {
		if p.Op == OpNLJN && p.IndexJoin {
			nljn++
		}
	})
	if nljn == 0 {
		t.Errorf("tiny outer should choose index NLJN:\n%s", Explain(pSmall, qSmall))
	}
	// Full outer → hash or merge join should win.
	qBig := selectiveJoinQuery(t, cat, 1000)
	pBig, err := New(cat).Optimize(qBig)
	if err != nil {
		t.Fatal(err)
	}
	if pBig.Count(OpHSJN)+pBig.Count(OpMGJN) == 0 {
		t.Errorf("large outer should choose hash/merge join:\n%s", Explain(pBig, qBig))
	}
}

func TestValidityRangeOnJoinEdge(t *testing.T) {
	cat := fixture(t)
	q := selectiveJoinQuery(t, cat, 2)
	p, err := New(cat).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	// Find the join and inspect the validity range on its outer edge: with a
	// hash-join alternative pruned, the upper bound must be finite — beyond
	// some outer cardinality NLJN is provably suboptimal.
	var join *Plan
	p.Walk(func(n *Plan) {
		if n.Op.IsJoin() && join == nil {
			join = n
		}
	})
	if join == nil {
		t.Fatal("no join in plan")
	}
	v := join.EdgeValidity(0)
	if math.IsInf(v.Hi, 1) {
		t.Errorf("outer edge validity should have a finite upper bound:\n%s", Explain(p, q))
	}
	if v.Hi <= join.Children[0].Card {
		t.Errorf("upper bound %v must exceed the estimate %v", v.Hi, join.Children[0].Card)
	}
}

func TestFeedbackChangesPlan(t *testing.T) {
	cat := fixture(t)
	q := selectiveJoinQuery(t, cat, 2)
	opt := New(cat)
	p1, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	hasIndexNLJN := func(p *Plan) bool {
		found := false
		p.Walk(func(n *Plan) {
			if n.Op == OpNLJN && n.IndexJoin {
				found = true
			}
		})
		return found
	}
	if !hasIndexNLJN(p1) {
		t.Fatalf("baseline should be index NLJN:\n%s", Explain(p1, q))
	}
	// Feedback says the dim-side cardinality is actually huge.
	fb := stats.NewFeedback()
	fb.Record(Signature(q, 1), 5000)
	opt2 := New(cat)
	opt2.Feedback = fb
	p2, err := opt2.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if hasIndexNLJN(p2) {
		t.Errorf("with corrected cardinality the plan should abandon index NLJN:\n%s", Explain(p2, q))
	}
}

func TestMVMatchingAndCostBasedReuse(t *testing.T) {
	cat := fixture(t)
	q := selectiveJoinQuery(t, cat, 2)
	joinSig := Signature(q, 0b11)
	// A tiny materialized intermediate result for the whole join.
	opt := New(cat)
	opt.Views = map[string]*MatView{joinSig: {
		Signature: joinSig,
		Cols:      []int{0, 1, 2, 3, 4},
		Rows:      []schema.Row{{types.NewInt(0), types.NewString("tag"), types.NewInt(0), types.NewInt(0), types.NewFloat(1)}},
		Card:      1,
	}}
	p, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count(OpMVScan) != 1 {
		t.Errorf("cheap MV should be reused:\n%s", Explain(p, q))
	}
	// A compile without the view must not plan an MVSCAN.
	p2, err := New(cat).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Count(OpMVScan) != 0 {
		t.Error("no views offered but MVSCAN planned")
	}
	// An enormous MV should lose on cost to recomputation.
	bigRows := make([]schema.Row, 200000)
	for i := range bigRows {
		bigRows[i] = schema.Row{types.NewInt(0), types.NewString("t"), types.NewInt(0), types.NewInt(0), types.NewFloat(0)}
	}
	opt = New(cat)
	opt.Views = map[string]*MatView{joinSig: {Signature: joinSig, Cols: []int{0, 1, 2, 3, 4}, Rows: bigRows, Card: 200000}}
	p3, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Count(OpMVScan) != 0 {
		t.Errorf("oversized MV should lose on cost:\n%s", Explain(p3, q))
	}
}

func TestGreedyEnumerationMatchesDP(t *testing.T) {
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("dim", "d")
	b.AddTable("fact", "f")
	b.AddTable("other", "o")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("d", "d_id"), R: b.Col("f", "f_dim")})
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("f", "f_id"), R: b.Col("o", "o_fact")})
	b.SelectCol("d", "d_tag")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dp, err := New(cat).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	greedy := New(cat)
	greedy.JoinOrder = JoinOrderGreedy
	gp, err := greedy.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if gp.Cost < dp.Cost*0.99 {
		t.Errorf("greedy (%.0f) should not beat DP (%.0f)", gp.Cost, dp.Cost)
	}
	if gp.Cost > dp.Cost*100 {
		t.Errorf("greedy (%.0f) wildly worse than DP (%.0f)", gp.Cost, dp.Cost)
	}
}

func TestSignatureProperties(t *testing.T) {
	cat := fixture(t)
	q := selectiveJoinQuery(t, cat, 2)
	s1 := Signature(q, 0b01)
	s2 := Signature(q, 0b10)
	s12 := Signature(q, 0b11)
	if s1 == s2 || s1 == s12 || s2 == s12 {
		t.Error("signatures must distinguish subsets")
	}
	if !strings.Contains(s1, "d") || !strings.Contains(s12, "d.d_id = f.f_dim") {
		t.Errorf("signatures should carry aliases and predicates: %s / %s", s1, s12)
	}
	// Deterministic.
	if Signature(q, 0b11) != s12 {
		t.Error("signature not deterministic")
	}
}

func TestDisableNLJNRemovesIt(t *testing.T) {
	cat := fixture(t)
	q := selectiveJoinQuery(t, cat, 2)
	opt := New(cat)
	opt.DisableNLJN = true
	p, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count(OpNLJN) != 0 {
		t.Errorf("NLJN disabled but planned:\n%s", Explain(p, q))
	}
}

func TestCrossJoinWhenNoPredicate(t *testing.T) {
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("dim", "d")
	b.AddTable("other", "o")
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("d", "d_id"), R: &expr.Const{Val: types.NewInt(1)}})
	b.SelectCol("d", "d_tag")
	b.SelectCol("o", "o_id")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(cat).Optimize(q)
	if err != nil {
		t.Fatalf("cross join must still plan: %v", err)
	}
	if p.Count(OpNLJN) == 0 {
		t.Errorf("cartesian product should be a naive NLJN:\n%s", Explain(p, q))
	}
}

func TestExplainRendering(t *testing.T) {
	cat := fixture(t)
	q := selectiveJoinQuery(t, cat, 2)
	p, err := New(cat).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	s := Explain(p, q)
	for _, want := range []string{"RETURN", "card=", "cost=", "NLJN"} {
		if !strings.Contains(s, want) {
			t.Errorf("explain output missing %q:\n%s", want, s)
		}
	}
}

func TestRangeHelpers(t *testing.T) {
	r := UnboundedRange()
	if !r.Contains(0) || !r.Contains(1e18) {
		t.Error("unbounded range should contain everything")
	}
	if r.Bounded() {
		t.Error("unbounded range is not bounded")
	}
	r2 := Range{Lo: 10, Hi: 100}
	if r2.Contains(9) || !r2.Contains(10) || !r2.Contains(100) || r2.Contains(101) {
		t.Error("range membership wrong")
	}
	if !r2.Bounded() {
		t.Error("finite range is bounded")
	}
}

func TestCheckFlavorAndOpNames(t *testing.T) {
	for _, f := range []CheckFlavor{LC, LCEM, ECB, ECWC, ECDC} {
		if strings.Contains(f.String(), "?") {
			t.Errorf("flavor %d has no name", f)
		}
	}
	ops := []OpKind{OpTableScan, OpIndexScan, OpMVScan, OpNLJN, OpHSJN, OpMGJN, OpSort, OpTemp, OpHashAgg, OpProject, OpCheck}
	for _, op := range ops {
		if strings.Contains(op.String(), "?") {
			t.Errorf("op %d has no name", op)
		}
	}
	if !OpNLJN.IsJoin() || OpSort.IsJoin() {
		t.Error("IsJoin wrong")
	}
	if !OpSort.IsMaterialization() || !OpTemp.IsMaterialization() || OpHSJN.IsMaterialization() {
		t.Error("IsMaterialization wrong")
	}
}

func TestCostModelSpillCliff(t *testing.T) {
	m := CostModel{Params: DefaultCostParams()}
	m.Params.MemoryBytes = 1000
	build := &Plan{Op: OpTableScan, Cols: []int{0, 1}, Card: 10, Cost: 10}
	probe := &Plan{Op: OpTableScan, Cols: []int{2}, Card: 100, Cost: 100}
	join := &Plan{Op: OpHSJN, Children: []*Plan{probe, build}, Cols: []int{2, 0, 1}, Card: 100}
	inMem := m.Recost(join, []float64{100, 10}, []float64{100, 10})
	spilled := m.Recost(join, []float64{100, 1000}, []float64{100, 10})
	if spilled <= inMem {
		t.Error("spilling build should cost more")
	}
	// The cliff: crossing the memory boundary jumps the cost discontinuously.
	below := m.Recost(join, []float64{100, 41}, []float64{100, 10}) // 41*24 < 1000
	above := m.Recost(join, []float64{100, 43}, []float64{100, 10}) // 43*24 > 1000
	if above-below < m.Params.SpillRow*100 {
		t.Errorf("expected spill cliff: below=%v above=%v", below, above)
	}
}

func TestCostWithEdgeCardMonotoneForNLJN(t *testing.T) {
	m := CostModel{Params: DefaultCostParams()}
	inner := &Plan{Op: OpIndexScan, Cols: []int{1}, Card: 5, Cost: 20}
	outer := &Plan{Op: OpTableScan, Cols: []int{0}, Card: 10, Cost: 100}
	join := &Plan{Op: OpNLJN, IndexJoin: true, Children: []*Plan{outer, inner}, Cols: []int{0, 1}, Card: 50}
	prev := 0.0
	for c := 1.0; c < 1e6; c *= 10 {
		cost := m.CostWithEdgeCard(join, 0, c)
		if cost < prev {
			t.Errorf("NLJN cost must be nondecreasing in outer card: %v at %v", cost, c)
		}
		prev = cost
	}
}
