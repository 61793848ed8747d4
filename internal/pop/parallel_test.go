package pop

import (
	"strings"
	"testing"

	"repro/internal/executor"
	"repro/internal/optimizer"
)

// forceParallelHash configures an optimizer to plan hash joins only, for the
// given worker count.
func forceParallelHash(workers int) func(*optimizer.Optimizer) {
	return func(o *optimizer.Optimizer) {
		o.DisableNLJN = true
		o.DisableMGJN = true
		o.Model.Params.Workers = workers
	}
}

// TestParallelPOPMatchesSerial runs the full POP loop over a parallel plan
// and checks the result multiset is identical to the serial run's.
func TestParallelPOPMatchesSerial(t *testing.T) {
	cat := correlatedFixture(t)
	q := correlatedQuery(t, cat)

	sOpts := DefaultOptions()
	sOpts.Configure = forceParallelHash(1)
	serial, err := NewRunner(cat, sOpts).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}

	pOpts := DefaultOptions()
	pOpts.Configure = forceParallelHash(4)
	pOpts.Analyze = true
	par, err := NewRunner(cat, pOpts).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(par.Attempts[0].Explain, "XCHG") {
		t.Fatalf("parallel run's initial plan has no exchange:\n%s", par.Attempts[0].Explain)
	}

	g, w := canon(par.Rows), canon(serial.Rows)
	if len(g) != len(w) {
		t.Fatalf("parallel POP returned %d rows, serial %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d: parallel %s vs serial %s", i, g[i], w[i])
		}
	}

	// One logical CHECK must yield one merged observation even when it is
	// cloned once per partition worker: the touched CHECK nodes of the stats
	// tree, which is what the opportunity analysis reads.
	seen := map[*optimizer.CheckMeta]bool{}
	par.Attempts[len(par.Attempts)-1].Stats.Walk(func(sn *executor.StatsNode) {
		meta := sn.Plan.Check
		if sn.Plan.Op != optimizer.OpCheck || meta == nil || !sn.Stats.Touched {
			return
		}
		if seen[meta] {
			t.Fatalf("check #%d reported more than once", meta.ID)
		}
		seen[meta] = true
	})
	if len(seen) == 0 {
		t.Fatalf("no CHECK of the parallel run saw a row:\n%s", par.Attempts[0].Explain)
	}
}

// TestParallelForcedReoptimization forces a checkpoint inside the parallel
// plan to fail: exactly one violation must reach the controller, trigger
// exactly one re-optimization, and the final result must match a run
// without POP.
func TestParallelForcedReoptimization(t *testing.T) {
	cat := correlatedFixture(t)
	q := correlatedQuery(t, cat)

	opts := DefaultOptions()
	opts.Configure = forceParallelHash(4)
	opts.Policy.FailCheckIDs = map[int]bool{0: true}
	res, err := NewRunner(cat, opts).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reopts != 1 {
		t.Fatalf("forced failure should cause exactly one re-optimization, got %d", res.Reopts)
	}
	if res.Attempts[0].Violation == nil {
		t.Fatal("first attempt should record the violation")
	}

	off := Options{Enabled: false, Configure: forceParallelHash(4)}
	base, err := NewRunner(cat, off).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, w := canon(res.Rows), canon(base.Rows)
	if len(g) != len(w) {
		t.Fatalf("re-optimized parallel run returned %d rows, baseline %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d: got %s, want %s", i, g[i], w[i])
		}
	}
}
