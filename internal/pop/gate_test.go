package pop

import (
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/tpch"
	"repro/internal/trace"
	"repro/internal/types"
)

// testGate is a budgeted WorkerGate that tracks outstanding grants, the peak
// occupancy, and acquire/release balance.
type testGate struct {
	mu       sync.Mutex
	budget   int
	out      int
	peak     int
	acquires int
	releases int
	negative bool // a release drove the outstanding count below zero
}

func (g *testGate) AcquireWorkers(want int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.acquires++
	free := g.budget - g.out
	if free < 0 {
		free = 0
	}
	got := want
	if got > free {
		got = free
	}
	g.out += got
	if g.out > g.peak {
		g.peak = g.out
	}
	return got
}

func (g *testGate) ReleaseWorkers(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.releases++
	g.out -= n
	if g.out < 0 {
		g.negative = true
	}
}

// snapshot returns (outstanding, peak) under the lock.
func (g *testGate) snapshot() (int, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.out, g.peak
}

// TestGatedWorkMatchesUngated pins the scheduler's core contract: a worker
// gate changes when and how wide an exchange runs, never what it computes.
// The same forced-reoptimization statement is run ungated (full DOP) and
// under budgets that clamp the exchanges to partial width and all the way to
// a zero grant's DOP-1 worker. Simulated work must be bit-identical
// and the result multiset unchanged, and every grant must be balanced by a
// release.
func TestGatedWorkMatchesUngated(t *testing.T) {
	cat := correlatedFixture(t)
	q := correlatedQuery(t, cat)

	run := func(gate *testGate, tr trace.Recorder) *Result {
		t.Helper()
		opts := DefaultOptions()
		opts.Configure = forceParallelHash(4)
		opts.Policy.FailCheckIDs = map[int]bool{0: true}
		opts.Trace = tr
		if gate != nil {
			opts.Gate = gate
		}
		res, err := NewRunner(cat, opts).Run(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reopts == 0 {
			t.Fatal("forced checkpoint failure must re-optimize")
		}
		return res
	}

	base := run(nil, nil)
	for _, budget := range []int{0, 1, 2, 100} {
		gate := &testGate{budget: budget}
		col := trace.NewCollector()
		res := run(gate, col)

		if res.Work != base.Work {
			t.Errorf("budget=%d: gated work %v != ungated %v", budget, res.Work, base.Work)
		}
		g, w := canon(res.Rows), canon(base.Rows)
		if len(g) != len(w) {
			t.Fatalf("budget=%d: gated %d rows, ungated %d", budget, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("budget=%d row %d: %s vs %s", budget, i, g[i], w[i])
			}
		}

		out, peak := gate.snapshot()
		if out != 0 {
			t.Errorf("budget=%d: %d workers still outstanding after the run", budget, out)
		}
		if gate.negative {
			t.Errorf("budget=%d: release drove occupancy negative", budget)
		}
		if peak > budget {
			t.Errorf("budget=%d: peak occupancy %d exceeds budget", budget, peak)
		}
		if gate.acquires == 0 {
			t.Errorf("budget=%d: plan never consulted the gate", budget)
		}

		clamps := col.OfKind(trace.DOPClamp)
		if budget < 4 && len(clamps) == 0 {
			t.Errorf("budget=%d: no dop_clamp event despite a constraining budget", budget)
		}
		if budget == 0 {
			for _, ev := range clamps {
				if ev.Sched == nil || ev.Sched.Granted != 0 {
					t.Errorf("budget=0: clamp event should record a zero grant: %+v", ev.Sched)
				}
			}
		}
	}
}

// TestZeroGrantRunsOneWorker pins what a zero grant runs: the exchange's
// ordinary worker path at DOP 1. Under a gate that grants nothing, every
// exchange's dop_clamp (granted 0) is matched by one gather worker_start
// event at DOP 1, and rows and work equal the ungated run.
func TestZeroGrantRunsOneWorker(t *testing.T) {
	cat := correlatedFixture(t)
	q := correlatedQuery(t, cat)
	run := func(gate *testGate, tr trace.Recorder) *Result {
		t.Helper()
		opts := Options{Enabled: false, Configure: forceParallelHash(4), Trace: tr}
		if gate != nil {
			opts.Gate = gate
		}
		res, err := NewRunner(cat, opts).Run(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	base := run(nil, nil)
	gate := &testGate{}
	col := trace.NewCollector()
	res := run(gate, col)
	if res.Work != base.Work {
		t.Errorf("zero-grant work %v != ungated %v", res.Work, base.Work)
	}
	g, w := canon(res.Rows), canon(base.Rows)
	if len(g) != len(w) {
		t.Fatalf("zero grant returned %d rows, ungated %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d: %s vs %s", i, g[i], w[i])
		}
	}
	if out, peak := gate.snapshot(); out != 0 || peak != 0 {
		t.Errorf("a zero grant took from the pool: %d outstanding, peak %d", out, peak)
	}

	clamps := col.OfKind(trace.DOPClamp)
	if len(clamps) == 0 {
		t.Fatal("no dop_clamp event: the plan has no exchange to clamp")
	}
	for _, ev := range clamps {
		if ev.Sched.Granted != 0 {
			t.Errorf("clamp granted %d under a gate that grants nothing", ev.Sched.Granted)
		}
	}
	starts := col.OfKind(trace.WorkerStart)
	for _, ev := range starts {
		if ev.Worker.Phase != "gather" || ev.Worker.DOP != 1 || ev.Worker.Worker != 0 {
			t.Errorf("%s worker %d started at dop=%d, want gather worker 0 at dop=1", ev.Worker.Phase, ev.Worker.Worker, ev.Worker.DOP)
		}
	}
	if len(starts) != len(clamps) {
		t.Errorf("%d zero grants but %d gathers started a worker", len(clamps), len(starts))
	}
	if d := len(col.OfKind(trace.WorkerDrain)); d != len(starts) {
		t.Errorf("%d worker_drain events for %d starts", d, len(starts))
	}
}

// TestGateOccupancy32ConcurrentQ10 is the unbounded-goroutine-growth pin: 32
// concurrent parameterized Q10 statements (each planned at DOP 4 and forced
// through a re-optimization) share one budgeted gate, and the pool's peak
// occupancy must never exceed the budget even though the aggregate demand is
// an order of magnitude larger.
func TestGateOccupancy32ConcurrentQ10(t *testing.T) {
	cat := catalog.New()
	if err := tpch.Load(cat, tpch.Config{ScaleFactor: 0.002, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	q, err := tpch.Q10Param(cat)
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 32
	const budget = 6
	gate := &testGate{budget: budget}

	baseOpts := DefaultOptions()
	baseOpts.Configure = forceParallelHash(4)
	base, err := NewRunner(cat, baseOpts).Run(q, []types.Datum{types.NewFloat(50)})
	if err != nil {
		t.Fatal(err)
	}

	want := len(base.Rows)

	var wg sync.WaitGroup
	errs := make([]error, sessions)
	rows := make([]int, sessions)
	reopts := make([]int, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			opts := DefaultOptions()
			opts.Configure = forceParallelHash(4)
			opts.Gate = gate
			res, err := NewRunner(cat, opts).Run(q, []types.Datum{types.NewFloat(50)})
			if err != nil {
				errs[s] = err
				return
			}
			rows[s] = len(res.Rows)
			reopts[s] = res.Reopts
		}(s)
	}
	wg.Wait()

	// Work (and float-aggregate low bits) through a mid-stream violation is
	// not DOP-comparable — sibling workers drain a scheduling-dependent
	// amount before cancellation, and partitioned SUM accumulation order
	// varies with the effective DOP — so the bit-identity pin lives in
	// TestGatedWorkMatchesUngated; here the contract is result cardinality
	// plus the occupancy bound.
	anyReopt := false
	for s := 0; s < sessions; s++ {
		if errs[s] != nil {
			t.Fatalf("session %d: %v", s, errs[s])
		}
		if rows[s] != want {
			t.Fatalf("session %d returned %d rows, baseline %d", s, rows[s], want)
		}
		anyReopt = anyReopt || reopts[s] > 0
	}
	if !anyReopt {
		t.Error("no session re-optimized; the scenario must exercise the POP loop under contention")
	}
	out, peak := gate.snapshot()
	if out != 0 {
		t.Errorf("%d workers still outstanding after all sessions", out)
	}
	if gate.negative {
		t.Error("a release drove occupancy negative")
	}
	if peak > budget {
		t.Errorf("peak pool occupancy %d exceeds budget %d", peak, budget)
	}
	if peak == 0 {
		t.Error("no worker was ever granted; the gate was not exercised")
	}
}
