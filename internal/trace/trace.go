// Package trace is the structured event trace of a POP execution: a typed,
// concurrency-safe stream of everything the adaptive machinery decides —
// optimizations, checkpoint outcomes with their estimate/actual pairs and
// validity ranges, re-optimizations, plan-cache verdicts, and per-operator
// stats. Producers (pop.Runner, its plan cache, the executor) emit
// events only when a Recorder is attached; with the recorder off the hot path
// performs no event construction and no allocations, so the default execution
// path stays bit-identical to an untraced run.
//
// Events encode as JSONL (one JSON object per line, schema documented in
// DESIGN.md §8) via JSONL, aggregate into cumulative counters via
// metrics.Registry (which implements Recorder), and round-trip through
// Decode for analysis tooling.
package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Kind names an event type.
type Kind string

// Event kinds. One JSONL line per event; every kind populates Query and
// Attempt plus exactly one of the optional payload sub-objects.
const (
	// OptimizeStart marks an optimizer invocation (Attempt 0 is the initial
	// compilation; higher attempts are re-optimizations with feedback).
	OptimizeStart Kind = "optimize_start"
	// OptimizeDone carries the chosen plan's signature, cost, enumeration
	// work and checkpoint count (payload: Opt).
	OptimizeDone Kind = "optimize_done"
	// CheckpointPassed is emitted exactly once per logical CHECK whose
	// cardinality was validated in range (payload: Check).
	CheckpointPassed Kind = "checkpoint_passed"
	// CheckpointViolated is emitted exactly once per CHECK violation that
	// reached the POP controller (payload: Check).
	CheckpointViolated Kind = "checkpoint_violated"
	// Reoptimize marks the controller's reaction to a violation: feedback
	// recorded and temp MVs promoted (payload: Reopt).
	Reoptimize Kind = "reoptimize"
	// CacheHit / CacheMiss / CacheGuardReject / CacheInvalidate describe the
	// plan cache's verdicts (payload: Cache).
	CacheHit         Kind = "cache_hit"
	CacheMiss        Kind = "cache_miss"
	CacheGuardReject Kind = "cache_guard_reject"
	CacheInvalidate  Kind = "cache_invalidate"
	// WorkerStart is never emitted: execution is serial. It is kept only
	// because the benchmark harness (bench/) still counts it, until ROADMAP
	// item 8 deletes it.
	WorkerStart Kind = "worker_start"
	// OperatorDone reports one plan operator's merged runtime stats after an
	// attempt finishes, in analyze mode (payload: Op).
	OperatorDone Kind = "operator_done"
	// QueryDone closes a statement's event stream (payload: Done).
	QueryDone Kind = "query_done"
	// QueryError closes a failed statement's event stream (payload: Err).
	// Without it an abort mid-optimization leaves a dangling optimize_start
	// and a consumer cannot tell a failed statement from a truncated trace.
	QueryError Kind = "query_error"
	// AdmissionWait marks a query that queued for an execution slot before
	// admission (payload: Sched with WaitNS and the queue depth observed).
	AdmissionWait Kind = "admission_wait"
	// AdmissionReject marks a query turned away without queueing (payload:
	// Sched with Reason "draining" or "backpressure").
	AdmissionReject Kind = "admission_reject"
)

// CheckInfo is the payload of checkpoint events: the estimate the validity
// range was derived from, the observed cardinality, and the range itself.
type CheckInfo struct {
	ID     int     `json:"id"`
	Flavor string  `json:"flavor"`
	Where  string  `json:"where,omitempty"`
	Est    float64 `json:"est"`
	Actual float64 `json:"actual"`
	// Exact reports whether Actual is the complete edge cardinality (lazy
	// validation / lower-bound EOF test) or an eager lower bound.
	Exact   bool    `json:"exact,omitempty"`
	RangeLo float64 `json:"range_lo"`
	// RangeHi is nil when the range is unbounded above (JSON has no +Inf).
	RangeHi *float64 `json:"range_hi,omitempty"`
}

// OptInfo is the payload of optimize_done.
type OptInfo struct {
	PlanSig    string  `json:"plan_sig"` // FNV-64a of the rendered plan, hex
	Cost       float64 `json:"cost"`
	Candidates int     `json:"candidates"` // plans costed during enumeration
	Checks     int     `json:"checks"`     // checkpoints placed
}

// ReoptInfo is the payload of reoptimize.
type ReoptInfo struct {
	MVsCreated int `json:"mvs_created"`
	FeedbackN  int `json:"feedback_n"`
}

// CacheInfo is the payload of plan-cache events.
type CacheInfo struct {
	Key string `json:"key"` // FNV-64a of the normalized statement key, hex
	// OptWork is guard subset-estimates on a hit, candidate costings on a
	// miss; OptWorkSaved is the full-optimization work a hit avoided.
	OptWork      int `json:"opt_work,omitempty"`
	OptWorkSaved int `json:"opt_work_saved,omitempty"`
	Plans        int `json:"plans,omitempty"` // entry's plan count after the event
	// Guard rejection detail (cache_guard_reject): the guarded subset's
	// signature, its estimated cardinality under this binding, and the
	// validity range that rejected it.
	GuardSig string   `json:"guard_sig,omitempty"`
	GuardEst float64  `json:"guard_est,omitempty"`
	RangeLo  float64  `json:"range_lo,omitempty"`
	RangeHi  *float64 `json:"range_hi,omitempty"`
}

// OpInfo is the payload of operator_done: one plan node's runtime stats.
type OpInfo struct {
	Op     string  `json:"op"`
	Est    float64 `json:"est"`
	Actual float64 `json:"actual"`
	Work   float64 `json:"work"`
	Spill  bool    `json:"spill,omitempty"`
}

// DoneInfo is the payload of query_done.
type DoneInfo struct {
	Rows   int     `json:"rows"`
	Work   float64 `json:"work"`
	Reopts int     `json:"reopts"`
}

// ErrInfo is the payload of query_error.
type ErrInfo struct {
	Error string `json:"error"`
}

// SchedInfo is the payload of scheduler events: admission outcomes
// (WaitNS/Depth/Reason).
type SchedInfo struct {
	WaitNS int64  `json:"wait_ns,omitempty"`
	Depth  int    `json:"depth,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// Event is one trace record. Query is the statement's full-subset signature
// (or, for cache events, its normalized cache-key hash); Attempt numbers the
// optimize→execute round the event belongs to, 0-based.
type Event struct {
	Seq     int64  `json:"seq"`
	Kind    Kind   `json:"kind"`
	Query   string `json:"query,omitempty"`
	Attempt int    `json:"attempt"`

	Check *CheckInfo `json:"check,omitempty"`
	Opt   *OptInfo   `json:"opt,omitempty"`
	Reopt *ReoptInfo `json:"reopt,omitempty"`
	Cache *CacheInfo `json:"cache,omitempty"`
	Op    *OpInfo    `json:"op,omitempty"`
	Done  *DoneInfo  `json:"done,omitempty"`
	Err   *ErrInfo   `json:"error,omitempty"`
	Sched *SchedInfo `json:"sched,omitempty"`
}

// Recorder receives events. Implementations must be safe for concurrent use:
// a server's sessions record through one shared recorder. Producers hold a
// Recorder as a possibly-nil interface and must guard every emission with a
// nil check — that guard is the whole disabled path.
type Recorder interface {
	Record(ev Event)
}

// JSONL writes events as JSON Lines, assigning sequence numbers in emission
// order. Encoding errors are sticky and reported by Err.
type JSONL struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	seq int64
	n   int64
	err error
}

// NewJSONL returns a recorder writing one JSON object per line to w.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{w: bw, enc: json.NewEncoder(bw)}
}

// Record encodes the event, stamping its sequence number.
func (t *JSONL) Record(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	t.n++
	ev.Seq = t.seq
	if err := t.enc.Encode(ev); err != nil && t.err == nil {
		t.err = err
	}
}

// Flush writes buffered output through to the underlying writer.
func (t *JSONL) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// Events returns the number of events recorded so far.
func (t *JSONL) Events() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Err returns the first encoding or flush error, if any.
func (t *JSONL) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Collector buffers events in memory, for tests and interactive inspection.
type Collector struct {
	mu  sync.Mutex
	seq int64
	evs []Event
}

// NewCollector returns an empty in-memory recorder.
func NewCollector() *Collector { return &Collector{} }

// Record appends the event, stamping its sequence number.
func (c *Collector) Record(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	ev.Seq = c.seq
	c.evs = append(c.evs, ev)
}

// Events returns a snapshot of the recorded events.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.evs...)
}

// OfKind filters a snapshot down to one event kind.
func (c *Collector) OfKind(k Kind) []Event {
	var out []Event
	for _, ev := range c.Events() {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// Multi fans every event out to several recorders (e.g. a JSONL file plus a
// metrics registry). Nil members are skipped, so callers can compose
// optional sinks without guards.
func Multi(rs ...Recorder) Recorder {
	var live []Recorder
	for _, r := range rs {
		if r != nil {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []Recorder

func (m multi) Record(ev Event) {
	for _, r := range m {
		r.Record(ev)
	}
}

// Decode reads a JSONL stream back into events — the round-trip inverse of
// JSONL. Blank lines are skipped.
func Decode(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return out, err
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}

// Float returns a pointer to v — the helper for optional range bounds.
func Float(v float64) *float64 { return &v }
