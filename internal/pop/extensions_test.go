package pop

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/types"
)

// TestLEOSharedFeedback exercises the §7 "Learning for the Future"
// extension through the plan cache: the statement entry keeps the feedback
// of a run that re-optimized, so the second execution is a hit on the
// corrected plan and completes without re-optimizing at all.
func TestLEOSharedFeedback(t *testing.T) {
	cat := correlatedFixture(t)
	q := correlatedQuery(t, cat)
	r := NewRunner(cat, DefaultOptions())
	r.Cache = NewCache()

	first, err := r.Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Reopts != 1 {
		t.Fatalf("first execution should re-optimize once, got %d", first.Reopts)
	}
	second, err := r.Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cache.Hit || second.Reopts != 0 {
		t.Errorf("second execution should be a hit on the learned plan (hit=%t reopts=%d)", second.Cache.Hit, second.Reopts)
	}
	if strings.Contains(second.Attempts[0].Explain(), "NLJN[index]") {
		t.Errorf("learned plan should not repeat the index NLJN mistake:\n%s", second.Attempts[0].Explain())
	}
	if second.Work >= first.Work {
		t.Errorf("learned execution (%v) should be cheaper than the re-optimized one (%v)", second.Work, first.Work)
	}
	if len(second.Rows) != len(first.Rows) {
		t.Error("results differ across executions")
	}
	t.Logf("work: first %v, second %v", first.Work, second.Work)
}

// TestForceMVReuseOnFinalAttempt verifies the §7 termination heuristic: on
// the last permitted re-optimization, matching intermediate results are
// reused unconditionally.
func TestForceMVReuseOnFinalAttempt(t *testing.T) {
	cat := correlatedFixture(t)
	q := correlatedQuery(t, cat)
	opts := DefaultOptions()
	opts.MaxReopts = 1 // attempt 1 is the final one: ForceMVReuse applies
	res, err := NewRunner(cat, opts).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reopts != 1 {
		t.Fatalf("expected one re-optimization, got %d", res.Reopts)
	}
	final := res.Attempts[len(res.Attempts)-1]
	if !strings.Contains(final.Explain(), "MVSCAN") {
		t.Errorf("final attempt must reuse the materialized intermediate:\n%s", final.Explain())
	}
}

// TestECWCPlacementAndFiring covers the fourth flavor end to end: an eager
// check pushed below a SORT materialization point fires *before* the
// materialization completes. ECWC/ECDC are the liberal flavors the paper
// places almost anywhere (§3.4), so the test uses threshold-style check
// ranges rather than the validity-range gate.
func TestECWCPlacementAndFiring(t *testing.T) {
	cat := correlatedFixture(t)
	q := correlatedQuery(t, cat)
	opts := DefaultOptions()
	opts.Policy = Policy{
		ECWC:                 true,
		RequireBoundedRange:  false,
		FixedThresholdFactor: 4, // fire when actual > 4x the estimate
	}
	opts.Configure = func(o *optimizer.Optimizer) {
		// Force sort-merge plans so SORT materialization points exist for
		// ECWC to push below.
		o.DisableHSJN = true
		o.DisableIndexJoin = true
	}
	res, err := NewRunner(cat, opts).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reopts == 0 {
		t.Fatalf("ECWC should have fired:\n%s", res.Attempts[0].Explain())
	}
	v := res.Attempts[0].Violation
	if v.Check.Flavor != optimizer.ECWC {
		t.Fatalf("violating flavor = %s, want ECWC", v.Check.Flavor)
	}
	if v.Exact {
		t.Error("ECWC fires mid-stream, before the materialization completes")
	}
	if v.Actual >= 8000 {
		t.Errorf("ECWC fired only at %v rows; it should react before the full 8000", v.Actual)
	}
	off, err := NewRunner(cat, Options{Enabled: false}).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(off.Rows) {
		t.Errorf("ECWC run rows = %d, baseline = %d", len(res.Rows), len(off.Rows))
	}
}

// TestSuccessiveReoptimizations builds a query with two independent
// correlated estimation errors — one on LINEITEM, one on ORDERS. The runner
// must survive however many oscillations the errors cause (paper §2:
// "alternating optimization and execution steps can occur any number of
// times") and still return the exact result. Note that the second error need
// not trigger a second re-optimization: after the first correction the
// orders-side under-estimate no longer makes the plan suboptimal, and the
// conservative validity ranges rightly leave it alone.
func TestSuccessiveReoptimizations(t *testing.T) {
	cat := correlatedFixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("lineitem", "l")
	b.AddTable("orders", "o")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("l", "l_order"), R: b.Col("o", "o_id")})
	two := &expr.Const{Val: types.NewInt(2)}
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("l", "l_c1"), R: two})
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("l", "l_c2"), R: two})
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("l", "l_c3"), R: two})
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("o", "o_c1"), R: two})
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("o", "o_c2"), R: two})
	b.SelectCol("l", "l_qty")
	b.SelectCol("o", "o_cust")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewRunner(cat, DefaultOptions()).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewRunner(cat, Options{Enabled: false}).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(off.Rows) {
		t.Fatalf("rows differ: POP %d vs baseline %d", len(res.Rows), len(off.Rows))
	}
	t.Logf("reopts=%d", res.Reopts)
	if res.Reopts < 1 {
		t.Fatalf("double-error query should re-optimize at least once:\n%s", res.Attempts[0].Explain())
	}
	// Every attempt but the last must carry a violation, each from a
	// different signature (a different mis-estimated edge).
	sigs := map[string]bool{}
	for _, a := range res.Attempts[:len(res.Attempts)-1] {
		if a.Violation == nil {
			t.Fatal("non-final attempt without violation")
		}
		sigs[a.Violation.Check.Signature] = true
	}
	if len(sigs) != res.Reopts {
		t.Errorf("expected %d distinct violated edges, got %d", res.Reopts, len(sigs))
	}
}
