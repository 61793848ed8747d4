package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

// feed plays a small synthetic statement history into a registry: two cached
// statements (one hit, one miss with a guard reject), one violation with a
// re-optimization, and analyze-mode operator stats.
func feed(r *Registry) {
	evs := []trace.Event{
		{Kind: trace.CacheMiss, Cache: &trace.CacheInfo{OptWork: 120, Plans: 1}},
		{Kind: trace.OptimizeStart},
		{Kind: trace.OptimizeDone, Opt: &trace.OptInfo{Candidates: 120, Checks: 2}},
		{Kind: trace.CheckpointViolated, Check: &trace.CheckInfo{ID: 0, Est: 320, Actual: 8000}},
		{Kind: trace.Reoptimize, Reopt: &trace.ReoptInfo{MVsCreated: 1, FeedbackN: 4}},
		{Kind: trace.OptimizeStart, Attempt: 1},
		{Kind: trace.OptimizeDone, Attempt: 1, Opt: &trace.OptInfo{Candidates: 80, Checks: 1}},
		{Kind: trace.CheckpointPassed, Check: &trace.CheckInfo{ID: 1, Est: 8000, Actual: 8000, Exact: true}},
		{Kind: trace.OperatorDone, Op: &trace.OpInfo{Op: "TBSCAN", Est: 40000, Actual: 40000, Work: 60}},
		{Kind: trace.OperatorDone, Op: &trace.OpInfo{Op: "HSJN", Est: 8000, Actual: 8000, Work: 30}},
		{Kind: trace.OperatorDone, Op: &trace.OpInfo{Op: "RETURN", Est: 8000, Actual: 8000, Work: 10}},
		{Kind: trace.QueryDone, Done: &trace.DoneInfo{Rows: 8000, Work: 100, Reopts: 1}},

		{Kind: trace.CacheGuardReject, Cache: &trace.CacheInfo{GuardEst: 30000, RangeLo: 100}},
		{Kind: trace.CacheHit, Cache: &trace.CacheInfo{OptWork: 7, OptWorkSaved: 113, Plans: 2}},
		{Kind: trace.CheckpointPassed, Check: &trace.CheckInfo{ID: 0, Est: 310, Actual: 300}},
		{Kind: trace.QueryDone, Done: &trace.DoneInfo{Rows: 12, Work: 50}},

		{Kind: trace.CacheInvalidate, Cache: &trace.CacheInfo{Plans: 1}},
	}
	for _, ev := range evs {
		r.Record(ev)
	}
}

func TestSnapshotCounters(t *testing.T) {
	r := New()
	feed(r)
	s := r.Snapshot()

	intChecks := []struct {
		name string
		got  int64
		want int64
	}{
		{"Queries", s.Queries, 2},
		{"Optimizations", s.Optimizations, 2},
		{"Reoptimizations", s.Reoptimizations, 1},
		{"CheckViolations", s.CheckViolations, 1},
		{"ChecksPassed", s.ChecksPassed, 2},
		{"CacheHits", s.CacheHits, 1},
		{"CacheMisses", s.CacheMisses, 1},
		{"CacheGuardRejects", s.CacheGuardRejects, 1},
		{"CacheInvalidates", s.CacheInvalidates, 1},
		{"RowsReturned", s.RowsReturned, 8012},
		{"OptCandidates", s.OptCandidates, 200},
	}
	for _, c := range intChecks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if math.Abs(s.ExecWork-150) > 1e-6 {
		t.Errorf("ExecWork = %v, want 150", s.ExecWork)
	}
	if math.Abs(s.CacheHitRatio-0.5) > 1e-9 {
		t.Errorf("CacheHitRatio = %v, want 0.5", s.CacheHitRatio)
	}
	if s.WorkByClass["scan"] != 60 || s.WorkByClass["join"] != 30 || s.WorkByClass["return"] != 10 {
		t.Errorf("WorkByClass = %v", s.WorkByClass)
	}
	if s.RowsByClass["join"] != 8000 {
		t.Errorf("RowsByClass = %v", s.RowsByClass)
	}
}

func TestEmptySnapshotRatios(t *testing.T) {
	s := New().Snapshot()
	if s.CacheHitRatio != 0 {
		t.Errorf("idle registry must report zero ratios, got %+v", s)
	}
	if s.WorkByClass != nil {
		t.Errorf("idle registry must omit the class breakdown, got %v", s.WorkByClass)
	}
}

func TestClass(t *testing.T) {
	want := map[string]string{
		"TBSCAN": "scan", "IXSCAN": "scan", "MVSCAN": "scan",
		"NLJN": "join", "HSJN": "join", "MGJN": "join",
		"SORT": "sortagg", "TEMP": "sortagg", "GRPBY": "sortagg",
		"CHECK": "check", "RETURN": "return",
		"MYSTERY": "other",
	}
	for op, cls := range want {
		if got := Class(op); got != cls {
			t.Errorf("Class(%q) = %q, want %q", op, got, cls)
		}
	}
}

func TestWriteText(t *testing.T) {
	r := New()
	feed(r)
	var b strings.Builder
	r.Snapshot().WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"queries", "reoptimizations", "cache hit ratio", "exec work",
		"work by operator class:", "scan", "join",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentRecord drives the registry from concurrent goroutines — the
// pattern of concurrent server sessions — relying on -race in CI, and checks
// the totals.
func TestConcurrentRecord(t *testing.T) {
	r := New()
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(trace.Event{Kind: trace.QueryDone,
					Done: &trace.DoneInfo{Rows: 1, Work: 1}})
				r.Record(trace.Event{Kind: trace.OperatorDone,
					Op: &trace.OpInfo{Op: "HSJN", Actual: 1, Work: 1}})
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Queries != workers*per || s.RowsReturned != workers*per {
		t.Errorf("Queries = %d, RowsReturned = %d, want %d", s.Queries, s.RowsReturned, workers*per)
	}
	if math.Abs(s.ExecWork-workers*per) > 1e-6 {
		t.Errorf("ExecWork = %v, want %d", s.ExecWork, workers*per)
	}
	if s.WorkByClass["join"] != workers*per {
		t.Errorf("WorkByClass[join] = %v, want %d", s.WorkByClass["join"], workers*per)
	}
}

// TestFailedQueriesCounted pins the failure accounting added with the
// query_error event: failed statements land in their own counter and appear
// in the text rendering.
func TestFailedQueriesCounted(t *testing.T) {
	r := New()
	feed(r)
	r.Record(trace.Event{Kind: trace.QueryError, Err: &trace.ErrInfo{Error: "boom"}})

	s := r.Snapshot()
	if s.QueriesFailed != 1 {
		t.Fatalf("QueriesFailed = %d, want 1", s.QueriesFailed)
	}
	if s.Queries != 2 {
		t.Fatalf("a failed statement must not count as completed: Queries = %d", s.Queries)
	}

	var b strings.Builder
	s.WriteText(&b)
	if out := b.String(); !strings.Contains(out, "queries failed") {
		t.Errorf("WriteText output missing %q:\n%s", "queries failed", out)
	}
}
