package pop

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/types"
)

// correlatedFixture builds the paper's canonical mis-estimation scenario:
// LINEITEM-like fact table with three perfectly correlated columns. Three
// predicates each of selectivity 0.2 estimate to 0.008 under independence
// but actually select 0.2 — a 25× under-estimate that flips the optimal
// join method from index NLJN to hash join.
func correlatedFixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	orders, err := c.CreateTable("orders", schema.New(
		schema.Column{Name: "o_id", Type: types.KindInt},
		schema.Column{Name: "o_cust", Type: types.KindInt},
		schema.Column{Name: "o_c1", Type: types.KindInt},
		schema.Column{Name: "o_c2", Type: types.KindInt}, // == o_c1: correlated
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		oc := int64(i % 10)
		orders.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)), types.NewInt(int64(i % 500)),
			types.NewInt(oc), types.NewInt(oc),
		})
	}
	line, err := c.CreateTable("lineitem", schema.New(
		schema.Column{Name: "l_order", Type: types.KindInt},
		schema.Column{Name: "l_qty", Type: types.KindFloat},
		schema.Column{Name: "l_c1", Type: types.KindInt},
		schema.Column{Name: "l_c2", Type: types.KindInt},
		schema.Column{Name: "l_c3", Type: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40000; i++ {
		corr := int64(i % 10) // l_c1 = l_c2 = l_c3: perfect correlation
		line.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i % 20000)),
			types.NewFloat(float64(i % 50)),
			types.NewInt(corr),
			types.NewInt(corr),
			types.NewInt(corr),
		})
	}
	if _, err := c.CreateBTreeIndex("orders_pk", "orders", "o_id"); err != nil {
		t.Fatal(err)
	}
	if err := c.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return c
}

// correlatedQuery joins lineitem to orders with the three correlated
// predicates.
func correlatedQuery(t *testing.T, cat *catalog.Catalog) *logical.Query {
	t.Helper()
	b := logical.NewBuilder(cat)
	b.AddTable("lineitem", "l")
	b.AddTable("orders", "o")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("l", "l_order"), R: b.Col("o", "o_id")})
	two := &expr.Const{Val: types.NewInt(2)}
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("l", "l_c1"), R: two})
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("l", "l_c2"), R: two})
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("l", "l_c3"), R: two})
	b.SelectCol("l", "l_qty")
	b.SelectCol("o", "o_cust")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// forceHash configures an optimizer to plan hash joins only.
func forceHash(o *optimizer.Optimizer) {
	o.DisableNLJN = true
	o.DisableMGJN = true
}

func canon(rows []schema.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func TestUnderestimateTriggersReoptimization(t *testing.T) {
	cat := correlatedFixture(t)
	q := correlatedQuery(t, cat)

	// Baseline without POP: the optimizer picks index NLJN off the bad
	// estimate and runs it to completion.
	off := NewRunner(cat, Options{Enabled: false})
	resOff, err := off.Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resOff.Rows) != 8000*2 { // 8000 lineitem survivors × 2 matching orders rows? no: unique o_id → 8000
		// Each lineitem row joins exactly one order (i%20000 vs o_id) and
		// lineitem has 2 rows per order id among survivors.
		t.Logf("baseline rows = %d", len(resOff.Rows))
	}
	if resOff.Reopts != 0 {
		t.Error("POP disabled must not re-optimize")
	}
	initialPlan := resOff.Attempts[0].Explain()
	if !strings.Contains(initialPlan, "NLJN[index]") {
		t.Fatalf("baseline should pick index NLJN:\n%s", initialPlan)
	}

	// With POP: the LCEM checkpoint on the NLJN outer fires, the query is
	// re-optimized into a hash join reusing the materialized outer.
	on := NewRunner(cat, DefaultOptions())
	resOn, err := on.Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resOn.Reopts != 1 {
		t.Fatalf("expected exactly one re-optimization, got %d", resOn.Reopts)
	}
	first := resOn.Attempts[0]
	if first.Violation == nil {
		t.Fatal("first attempt should record a violation")
	}
	if first.Violation.Check.Flavor != optimizer.LCEM {
		t.Errorf("violating check flavor = %s, want LCEM", first.Violation.Check.Flavor)
	}
	if !first.Violation.Exact || first.Violation.Actual != 8000 {
		t.Errorf("violation actual = %v exact=%v, want exact 8000", first.Violation.Actual, first.Violation.Exact)
	}
	if first.MVsCreated == 0 {
		t.Error("completed LCEM materialization should be promoted to an MV")
	}
	second := resOn.Attempts[1]
	if strings.Contains(second.Explain(), "NLJN[index]") {
		t.Errorf("re-optimized plan should abandon index NLJN:\n%s", second.Explain())
	}
	if !strings.Contains(second.Explain(), "MVSCAN") {
		t.Errorf("re-optimized plan should reuse the materialized outer:\n%s", second.Explain())
	}

	// Results identical.
	got, want := canon(resOn.Rows), canon(resOff.Rows)
	if len(got) != len(want) {
		t.Fatalf("row count mismatch: POP %d vs baseline %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d differs: %s vs %s", i, got[i], want[i])
		}
	}
}

func TestAccurateEstimateNoReopt(t *testing.T) {
	cat := correlatedFixture(t)
	// A single (uncorrelated) predicate: estimates are accurate, POP places
	// checkpoints but none fire, and overhead stays negligible.
	b := logical.NewBuilder(cat)
	b.AddTable("lineitem", "l")
	b.AddTable("orders", "o")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("l", "l_order"), R: b.Col("o", "o_id")})
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("l", "l_c1"), R: &expr.Const{Val: types.NewInt(2)}})
	b.SelectCol("l", "l_qty")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	off, err := NewRunner(cat, Options{Enabled: false}).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	on, err := NewRunner(cat, DefaultOptions()).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if on.Reopts != 0 {
		t.Fatalf("accurate estimates must not trigger re-optimization (got %d):\n%s",
			on.Reopts, on.Attempts[0].Explain())
	}
	if len(on.Rows) != len(off.Rows) {
		t.Error("row counts differ")
	}
	// Paper: overhead of POP without re-optimization is ~2-3%.
	overhead := on.Work/off.Work - 1
	if overhead > 0.10 {
		t.Errorf("POP overhead = %.1f%%, want < 10%%", overhead*100)
	}
}

func TestECBFiresBeforeMaterializationCompletes(t *testing.T) {
	cat := correlatedFixture(t)
	q := correlatedQuery(t, cat)
	opts := DefaultOptions()
	opts.Policy.LCEM = false
	opts.Policy.ECB = true
	res, err := NewRunner(cat, opts).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reopts != 1 {
		t.Fatalf("expected one re-optimization, got %d", res.Reopts)
	}
	v := res.Attempts[0].Violation
	if v.Check.Flavor != optimizer.ECB {
		t.Fatalf("flavor = %s, want ECB", v.Check.Flavor)
	}
	if v.Exact {
		t.Error("ECB fires mid-stream: the count must be a lower bound")
	}
	if v.Actual >= 8000 {
		t.Errorf("ECB should fire before the full 8000 rows, at %v", v.Actual)
	}
	if v.Check.BufferSize <= 0 {
		t.Error("ECB should carry a buffer size")
	}
	// ECB aborts the materialization, so no MV of the outer exists; the
	// final result must still be correct.
	off, err := NewRunner(cat, Options{Enabled: false}).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(off.Rows) {
		t.Errorf("ECB run rows = %d, baseline = %d", len(res.Rows), len(off.Rows))
	}
}

func TestECDCPipelinedNoDuplicates(t *testing.T) {
	cat := correlatedFixture(t)
	q := correlatedQuery(t, cat)
	opts := Options{
		Enabled:   true,
		MaxReopts: 3,
		Pipelined: true,
		Policy: Policy{
			ECDC:                true,
			RequireBoundedRange: true,
		},
	}
	res, err := NewRunner(cat, opts).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reopts == 0 {
		t.Fatalf("expected a re-optimization:\n%s", res.Attempts[0].Explain())
	}
	v := res.Attempts[0].Violation
	if v.Check.Flavor != optimizer.ECDC {
		t.Errorf("flavor = %s, want ECDC", v.Check.Flavor)
	}
	off, err := NewRunner(cat, Options{Enabled: false}).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, want := canon(res.Rows), canon(off.Rows)
	if len(got) != len(want) {
		t.Fatalf("pipelined POP returned %d rows, want %d (duplicates or loss)", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d differs after compensation", i)
		}
	}
}

func TestForcedDummyReoptKeepsResultAndFinishes(t *testing.T) {
	cat := correlatedFixture(t)
	// Accurate single-predicate query, but force checkpoint 0 to fail: a
	// "dummy" re-optimization as in the paper's Fig. 12 overhead study.
	b := logical.NewBuilder(cat)
	b.AddTable("lineitem", "l")
	b.AddTable("orders", "o")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("l", "l_order"), R: b.Col("o", "o_id")})
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("l", "l_c1"), R: &expr.Const{Val: types.NewInt(2)}})
	b.SelectCol("l", "l_qty")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Policy.FailCheckIDs = map[int]bool{0: true}
	res, err := NewRunner(cat, opts).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reopts != 1 {
		t.Fatalf("forced failure should cause exactly one re-optimization, got %d", res.Reopts)
	}
	off, err := NewRunner(cat, Options{Enabled: false}).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(off.Rows) {
		t.Error("dummy re-optimization changed the result")
	}
}

func TestPlacementPolicies(t *testing.T) {
	cat := correlatedFixture(t)
	q := correlatedQuery(t, cat)
	opt := optimizer.New(cat)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}

	// No policy → no checks.
	p0, n0 := Place(plan, q, Policy{})
	if n0 != 0 || CheckCount(p0) != 0 {
		t.Error("empty policy placed checks")
	}
	// Default policy → at least the LCEM on the NLJN outer.
	p1, n1 := Place(plan, q, DefaultPolicy())
	if n1 == 0 || CheckCount(p1) == 0 {
		t.Fatalf("default policy placed no checks:\n%s", optimizer.Explain(p1, q))
	}
	metas := Checks(p1)
	if len(metas) != n1 {
		t.Errorf("Checks() = %d, Place reported %d", len(metas), n1)
	}
	for i, m := range metas {
		if m.Signature == "" {
			t.Error("check without signature")
		}
		if m.EstCard <= 0 {
			t.Error("check without estimate")
		}
		_ = i
	}
	// Original plan untouched.
	if CheckCount(plan) != 0 {
		t.Error("Place mutated the input plan")
	}
	// Cheap plans are not checkpointed.
	pol := DefaultPolicy()
	pol.MinPlanCost = 1e12
	_, n2 := Place(plan, q, pol)
	if n2 != 0 {
		t.Error("min-cost threshold ignored")
	}
}

func TestMaxReoptsTermination(t *testing.T) {
	cat := correlatedFixture(t)
	q := correlatedQuery(t, cat)
	// MaxReopts = 0 would be normalized; use 1 and verify the run completes
	// with at most one reopt and correct results.
	opts := DefaultOptions()
	opts.MaxReopts = 1
	res, err := NewRunner(cat, opts).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reopts > 1 {
		t.Errorf("reopts = %d exceeds limit", res.Reopts)
	}
	off, _ := NewRunner(cat, Options{Enabled: false}).Run(q, nil)
	if len(res.Rows) != len(off.Rows) {
		t.Error("row counts differ")
	}
}

func TestCheckObservationsCollected(t *testing.T) {
	cat := correlatedFixture(t)
	q := correlatedQuery(t, cat)
	opts := DefaultOptions()
	opts.Policy.Unchecked = true // observe opportunities, never fire
	opts.Policy.RequireBoundedRange = false
	opts.Analyze = true
	res, err := NewRunner(cat, opts).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reopts != 0 {
		t.Fatal("unchecked run must not re-optimize")
	}
	checks := 0
	res.Attempts[0].Stats.Walk(func(sn *executor.StatsNode) {
		if sn.Plan.Op != optimizer.OpCheck {
			return
		}
		checks++
		if st := sn.Stats; st.Touched && (st.FirstWork < 0 || st.FirstWork > res.Work) {
			t.Errorf("check %d first-touch work %v outside [0, %v]", sn.Plan.Check.ID, st.FirstWork, res.Work)
		}
	})
	if checks == 0 {
		t.Fatalf("no check observations:\n%s", res.Attempts[0].Explain())
	}
}
