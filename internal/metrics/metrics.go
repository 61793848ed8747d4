// Package metrics is the engine's cumulative counter registry: queries run,
// re-optimizations, checkpoint outcomes, plan-cache verdicts and work units
// by operator class. The registry is itself a
// trace.Recorder — attaching it to a runner's trace stream is all the wiring
// there is — so every counter is derived from the same typed events the JSONL
// trace carries, and the two views can never disagree. It counts engine
// facts only: the scheduler's admissions are counted once, by
// server.SchedStats. All counters are atomics; Record is safe from
// concurrent sessions.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// workTick fixes the precision work-unit sums are accumulated at (integer
// ticks, so concurrent additions are associative and totals deterministic).
const workTick = 1 << 20

// Registry accumulates counters from trace events. The zero value is ready
// to use.
type Registry struct {
	queries    atomic.Int64
	failed     atomic.Int64
	optimizes  atomic.Int64
	reopts     atomic.Int64
	violations atomic.Int64
	passed     atomic.Int64

	cacheHits         atomic.Int64
	cacheMisses       atomic.Int64
	cacheGuardRejects atomic.Int64
	cacheInvalidates  atomic.Int64

	rows       atomic.Int64
	execTicks  atomic.Int64 // work units across completed queries
	candidates atomic.Int64 // optimizer candidate costings

	mu          sync.Mutex
	workByClass map[string]float64 // operator class → work units (analyze mode)
	rowsByClass map[string]float64
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// Class maps an operator's display name to its metrics class.
func Class(op string) string {
	switch op {
	case "TBSCAN", "IXSCAN", "MVSCAN":
		return "scan"
	case "NLJN", "HSJN", "MGJN":
		return "join"
	case "SORT", "TEMP", "GRPBY":
		return "sortagg"
	case "CHECK":
		return "check"
	case "RETURN":
		return "return"
	default:
		return "other"
	}
}

// Record implements trace.Recorder.
func (r *Registry) Record(ev trace.Event) {
	switch ev.Kind {
	case trace.OptimizeStart:
		r.optimizes.Add(1)
	case trace.OptimizeDone:
		if ev.Opt != nil {
			r.candidates.Add(int64(ev.Opt.Candidates))
		}
	case trace.CheckpointPassed:
		r.passed.Add(1)
	case trace.CheckpointViolated:
		r.violations.Add(1)
	case trace.Reoptimize:
		r.reopts.Add(1)
	case trace.CacheHit:
		r.cacheHits.Add(1)
	case trace.CacheMiss:
		r.cacheMisses.Add(1)
	case trace.CacheGuardReject:
		r.cacheGuardRejects.Add(1)
	case trace.CacheInvalidate:
		r.cacheInvalidates.Add(1)
	case trace.OperatorDone:
		if ev.Op != nil {
			c := Class(ev.Op.Op)
			r.mu.Lock()
			if r.workByClass == nil {
				r.workByClass = make(map[string]float64)
				r.rowsByClass = make(map[string]float64)
			}
			r.workByClass[c] += ev.Op.Work
			r.rowsByClass[c] += ev.Op.Actual
			r.mu.Unlock()
		}
	case trace.QueryDone:
		r.queries.Add(1)
		if ev.Done != nil {
			r.rows.Add(int64(ev.Done.Rows))
			r.execTicks.Add(int64(math.Round(ev.Done.Work * workTick)))
		}
	case trace.QueryError:
		r.failed.Add(1)
	case trace.AdmissionWait, trace.AdmissionReject:
		// Scheduler facts: server.SchedStats owns their counts.
	case trace.WorkerStart:
		// Never emitted.
	}
}

// Snapshot is a point-in-time copy of every counter, JSON-encodable.
type Snapshot struct {
	Queries           int64 `json:"queries"`
	QueriesFailed     int64 `json:"queries_failed"`
	Optimizations     int64 `json:"optimizations"`
	Reoptimizations   int64 `json:"reoptimizations"`
	CheckViolations   int64 `json:"check_violations"`
	ChecksPassed      int64 `json:"checks_passed"`
	CacheHits         int64 `json:"cache_hits"`
	CacheMisses       int64 `json:"cache_misses"`
	CacheGuardRejects int64 `json:"cache_guard_rejects"`
	CacheInvalidates  int64 `json:"cache_invalidates"`

	RowsReturned  int64   `json:"rows_returned"`
	ExecWork      float64 `json:"exec_work"`
	OptCandidates int64   `json:"opt_candidates"`

	// CacheHitRatio is hits / (hits + misses); zero when the cache was idle.
	CacheHitRatio float64 `json:"cache_hit_ratio"`

	WorkByClass map[string]float64 `json:"work_by_class,omitempty"`
	RowsByClass map[string]float64 `json:"rows_by_class,omitempty"`
}

// Snapshot copies the registry's counters and derives the ratio gauges.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Queries:           r.queries.Load(),
		QueriesFailed:     r.failed.Load(),
		Optimizations:     r.optimizes.Load(),
		Reoptimizations:   r.reopts.Load(),
		CheckViolations:   r.violations.Load(),
		ChecksPassed:      r.passed.Load(),
		CacheHits:         r.cacheHits.Load(),
		CacheMisses:       r.cacheMisses.Load(),
		CacheGuardRejects: r.cacheGuardRejects.Load(),
		CacheInvalidates:  r.cacheInvalidates.Load(),
		RowsReturned:      r.rows.Load(),
		ExecWork:          float64(r.execTicks.Load()) / workTick,
		OptCandidates:     r.candidates.Load(),
	}
	if n := s.CacheHits + s.CacheMisses; n > 0 {
		s.CacheHitRatio = float64(s.CacheHits) / float64(n)
	}
	r.mu.Lock()
	if len(r.workByClass) > 0 {
		s.WorkByClass = make(map[string]float64, len(r.workByClass))
		for k, v := range r.workByClass {
			s.WorkByClass[k] = v
		}
		s.RowsByClass = make(map[string]float64, len(r.rowsByClass))
		for k, v := range r.rowsByClass {
			s.RowsByClass[k] = v
		}
	}
	r.mu.Unlock()
	return s
}

// WriteText renders the snapshot as an aligned two-column listing, with the
// per-class work breakdown sorted by descending work.
func (s Snapshot) WriteText(w io.Writer) {
	line := func(name string, v interface{}) { fmt.Fprintf(w, "%-22s %v\n", name, v) }
	line("queries", s.Queries)
	line("queries failed", s.QueriesFailed)
	line("optimizations", s.Optimizations)
	line("reoptimizations", s.Reoptimizations)
	line("check violations", s.CheckViolations)
	line("checks passed", s.ChecksPassed)
	line("cache hits", s.CacheHits)
	line("cache misses", s.CacheMisses)
	line("cache guard rejects", s.CacheGuardRejects)
	line("cache invalidates", s.CacheInvalidates)
	fmt.Fprintf(w, "%-22s %.3f\n", "cache hit ratio", s.CacheHitRatio)
	line("rows returned", s.RowsReturned)
	fmt.Fprintf(w, "%-22s %.1f\n", "exec work", s.ExecWork)
	line("opt candidates", s.OptCandidates)
	if len(s.WorkByClass) > 0 {
		classes := make([]string, 0, len(s.WorkByClass))
		for c := range s.WorkByClass {
			classes = append(classes, c)
		}
		sort.Slice(classes, func(i, j int) bool {
			if s.WorkByClass[classes[i]] != s.WorkByClass[classes[j]] {
				return s.WorkByClass[classes[i]] > s.WorkByClass[classes[j]]
			}
			return classes[i] < classes[j]
		})
		fmt.Fprintln(w, "work by operator class:")
		for _, c := range classes {
			fmt.Fprintf(w, "  %-20s %12.1f work  %10.0f rows\n", c, s.WorkByClass[c], s.RowsByClass[c])
		}
	}
}
