package pop

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/metrics"
	"repro/internal/tpch"
	"repro/internal/trace"
	"repro/internal/types"
)

// TestTracedForcedReoptimization runs the correlated fixture on a hash-join
// plan with a forced checkpoint failure and checks the event stream's
// invariants: exactly one checkpoint_violated per re-optimization, exactly
// one checkpoint_passed per passing CHECK per attempt, and a coherent
// optimize/reoptimize/query_done bracket.
func TestTracedForcedReoptimization(t *testing.T) {
	cat := correlatedFixture(t)
	q := correlatedQuery(t, cat)

	col := trace.NewCollector()
	reg := metrics.New()
	opts := DefaultOptions()
	opts.Configure = forceHash
	opts.Policy.FailCheckIDs = map[int]bool{0: true}
	opts.Analyze = true
	opts.Trace = trace.Multi(col, reg)
	res, err := NewRunner(cat, opts).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reopts != 1 {
		t.Fatalf("forced failure should re-optimize once, got %d", res.Reopts)
	}

	// The traced, analyzed run must charge exactly the work an untraced run
	// does — the zero-overhead guarantee on the simulated substrate.
	untraced := DefaultOptions()
	untraced.Configure = forceHash
	untraced.Policy.FailCheckIDs = map[int]bool{0: true}
	ures, err := NewRunner(correlatedFixture(t), untraced).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ures.Work != res.Work {
		t.Errorf("tracing perturbed the meter: %v traced vs %v untraced", res.Work, ures.Work)
	}

	violated := col.OfKind(trace.CheckpointViolated)
	if len(violated) != res.Reopts {
		t.Fatalf("%d checkpoint_violated events for %d re-optimizations", len(violated), res.Reopts)
	}
	// The registry counts the same stream: one violation per re-optimization.
	if snap := reg.Snapshot(); snap.CheckViolations != int64(res.Reopts) || snap.Reoptimizations != int64(res.Reopts) {
		t.Errorf("metrics count %d violations and %d re-optimizations for %d re-optimizations",
			snap.CheckViolations, snap.Reoptimizations, res.Reopts)
	}
	v := violated[0]
	if v.Attempt != 0 {
		t.Errorf("violation stamped attempt %d, want 0", v.Attempt)
	}
	if v.Check == nil {
		t.Fatal("checkpoint_violated without Check payload")
	}
	cv := res.Attempts[0].Violation
	if v.Check.Est != cv.Check.EstCard || v.Check.Actual != cv.Actual || v.Check.ID != cv.Check.ID {
		t.Errorf("violation payload %+v does not match %v", v.Check, cv)
	}

	reopts := col.OfKind(trace.Reoptimize)
	if len(reopts) != res.Reopts {
		t.Fatalf("%d reoptimize events for %d re-optimizations", len(reopts), res.Reopts)
	}
	if reopts[0].Reopt.FeedbackN != res.Attempts[0].FeedbackN ||
		reopts[0].Reopt.MVsCreated != res.Attempts[0].MVsCreated {
		t.Errorf("reoptimize payload %+v vs attempt %+v", reopts[0].Reopt, res.Attempts[0])
	}

	optStarts := col.OfKind(trace.OptimizeStart)
	optDones := col.OfKind(trace.OptimizeDone)
	if len(optStarts) != len(res.Attempts) || len(optDones) != len(res.Attempts) {
		t.Fatalf("optimize events %d/%d for %d attempts", len(optStarts), len(optDones), len(res.Attempts))
	}
	for i, od := range optDones {
		if od.Opt == nil || od.Opt.PlanSig == "" || od.Opt.Candidates <= 0 {
			t.Errorf("optimize_done %d payload %+v", i, od.Opt)
		}
	}
	if optDones[0].Opt.PlanSig == optDones[1].Opt.PlanSig {
		t.Error("re-optimization did not change the plan signature")
	}

	// Exactly one checkpoint_passed per passing CHECK per attempt.
	passedAt := make(map[[2]int]int)
	for _, ev := range col.OfKind(trace.CheckpointPassed) {
		if ev.Check == nil {
			t.Fatal("checkpoint_passed without Check payload")
		}
		passedAt[[2]int{ev.Attempt, ev.Check.ID}]++
	}
	for k, n := range passedAt {
		if n != 1 {
			t.Errorf("checkpoint %v passed %d times, want exactly 1", k, n)
		}
	}
	if _, ok := passedAt[[2]int{0, 0}]; ok {
		t.Error("the violated checkpoint must not also report passed on attempt 0")
	}

	if len(col.OfKind(trace.OperatorDone)) == 0 {
		t.Fatal("analyze mode emitted no operator_done events")
	}

	dones := col.OfKind(trace.QueryDone)
	if len(dones) != 1 {
		t.Fatalf("%d query_done events, want 1", len(dones))
	}
	d := dones[0]
	if d.Done.Rows != len(res.Rows) || d.Done.Work != res.Work || d.Done.Reopts != res.Reopts {
		t.Errorf("query_done payload %+v vs result rows=%d work=%v reopts=%d",
			d.Done, len(res.Rows), res.Work, res.Reopts)
	}

	// Every statement-scoped event carries the same query signature.
	sig := querySig(q)
	for _, ev := range col.Events() {
		if ev.Query != sig {
			t.Fatalf("event %s carries query %q, want %q", ev.Kind, ev.Query, sig)
		}
	}
}

// TestTracedQ10 is the acceptance scenario: parameterized TPC-H Q10 with a
// default-selectivity estimate and an extreme binding emits checkpoint events
// carrying the estimated cardinality, the actual cardinality and the violated
// validity range.
func TestTracedQ10(t *testing.T) {
	cat := catalog.New()
	if err := tpch.Load(cat, tpch.Config{ScaleFactor: 0.005, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	q, err := tpch.Q10Param(cat)
	if err != nil {
		t.Fatal(err)
	}

	col := trace.NewCollector()
	opts := DefaultOptions()
	opts.Trace = col
	// No parameter binding during estimation: qty=50 selects all of LINEITEM
	// while the optimizer assumed the default selectivity, so a checkpoint
	// must catch the misestimate at runtime.
	res, err := NewRunner(cat, opts).Run(q, []types.Datum{types.NewFloat(50)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reopts == 0 {
		t.Fatal("extreme Q10 binding must violate a checkpoint")
	}

	violated := col.OfKind(trace.CheckpointViolated)
	if len(violated) != res.Reopts {
		t.Fatalf("%d checkpoint_violated events for %d re-optimizations", len(violated), res.Reopts)
	}
	for _, ev := range violated {
		c := ev.Check
		if c == nil {
			t.Fatal("checkpoint_violated without payload")
		}
		if c.Est <= 0 || c.Actual <= 0 || c.Flavor == "" {
			t.Errorf("incomplete violation payload %+v", c)
		}
		// The observed cardinality must actually lie outside the validity
		// range the event reports.
		inRange := c.Actual >= c.RangeLo && (c.RangeHi == nil || c.Actual <= *c.RangeHi)
		if inRange && c.Exact {
			t.Errorf("violation payload %+v reports an in-range actual", c)
		}
	}
	if len(col.OfKind(trace.QueryDone)) != 1 {
		t.Error("traced Q10 must close with one query_done")
	}
}

// TestFailedRunEmitsQueryError pins the terminal event of a failed
// statement: the trace must end with a query_error carrying the failure,
// not stop dead after an optimize_start. Failure is forced by running a
// query built against one catalog on an empty one, so the initial
// optimization's table lookup fails.
func TestFailedRunEmitsQueryError(t *testing.T) {
	cat := correlatedFixture(t)
	q := correlatedQuery(t, cat)

	col := trace.NewCollector()
	opts := DefaultOptions()
	opts.Trace = col
	_, err := NewRunner(catalog.New(), opts).Run(q, nil)
	if err == nil {
		t.Fatal("run against an empty catalog must fail")
	}

	evs := col.Events()
	if len(evs) == 0 {
		t.Fatal("failed run emitted no events")
	}
	last := evs[len(evs)-1]
	if last.Kind != trace.QueryError {
		t.Fatalf("stream must end with query_error, got %q", last.Kind)
	}
	if last.Err == nil || last.Err.Error != err.Error() {
		t.Errorf("query_error payload %+v does not carry the run error %q", last.Err, err)
	}
	if len(col.OfKind(trace.QueryDone)) != 0 {
		t.Error("failed run must not emit query_done")
	}
}
