package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// stamped is one engine event with the time the benchmark received it.
type stamped struct {
	at         time.Time
	kind       trace.Kind
	candidates int     // optimize_done
	work       float64 // query_done
}

// recorder is the benchmark's own trace.Recorder: it timestamps the engine's
// existing events on receipt, so the engine is measured from outside and the
// spans need no change to the program. It records only while on.
type recorder struct {
	on     atomic.Bool
	mu     sync.Mutex
	events []stamped
}

// Record implements trace.Recorder; exchange workers call it concurrently.
func (r *recorder) Record(ev trace.Event) {
	s := stamped{at: time.Now(), kind: ev.Kind}
	if ev.Opt != nil {
		s.candidates = ev.Opt.Candidates
	}
	if ev.Done != nil {
		s.work = ev.Done.Work
	}
	r.mu.Lock()
	r.events = append(r.events, s)
	r.mu.Unlock()
}

// take returns the events recorded since the last take.
func (r *recorder) take() []stamped {
	r.mu.Lock()
	defer r.mu.Unlock()
	evs := r.events
	r.events = nil
	return evs
}

// span is one line of the span file. Spans of one request share Request; the
// request's root span has Parent 0 and every layer span names the span that
// caused it. Times are nanoseconds since the traced pass began.
type span struct {
	Workload string `json:"workload"`
	Request  int    `json:"request"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracedTotals is what the traced pass adds up: per-span-name durations and
// the exact event counts.
type tracedTotals struct {
	requests int
	spanNS   map[string]int64 // span name → summed duration
	selfNS   map[string]int64 // span name → summed self time

	optimizes, candidates      int
	reopts, violations, passed int
	workersStarted             int
	workTotal                  float64
}

// tracer turns the serial traced pass's samples and events into spans.
// Serial execution makes attribution unambiguous: every event between one
// request's send and its reply belongs to that request.
type tracer struct {
	workload string
	front    string // layer that receives and answers: "server" or "pop"
	epoch    time.Time
	spans    []span
	totals   tracedTotals
}

// newTracer starts a traced pass.
func newTracer(wl *workload) *tracer {
	front := "pop"
	if wl.wire {
		front = "server"
	}
	return &tracer{
		workload: wl.name, front: front, epoch: time.Now(),
		totals: tracedTotals{spanNS: map[string]int64{}, selfNS: map[string]int64{}},
	}
}

// add builds one request's spans:
//
//	request ⊃ { front.pre_exec, optimizer.optimize ×k, executor.exec ×k,
//	            pop.harvest ×(k−1), front.reply ⊃ loadgen.decode }
//
// pre_exec runs from the request being written to the first optimize or
// exec span; exec from cache_hit or optimize_done to query_done or
// checkpoint_violated; harvest from checkpoint_violated to reoptimize; reply
// from the last engine event to the decoded reply. An optimize after
// query_done (the plan cache re-caching after an invalidation) is a child of
// the request like any other.
func (t *tracer) add(sm *sample, events []stamped) {
	t.totals.requests++
	reqID := len(t.spans) + 1
	root := span{Workload: t.workload, Request: sm.slot, ID: reqID, Name: "request",
		StartNS: sm.sent.Sub(t.epoch).Nanoseconds(), EndNS: sm.done.Sub(t.epoch).Nanoseconds()}
	t.spans = append(t.spans, root)
	var childNS int64
	child := func(parent int, name string, from, to time.Time) int {
		s := span{Workload: t.workload, Request: sm.slot, ID: len(t.spans) + 1, Parent: parent, Name: name,
			StartNS: from.Sub(t.epoch).Nanoseconds(), EndNS: to.Sub(t.epoch).Nanoseconds()}
		t.spans = append(t.spans, s)
		t.totals.spanNS[name] += s.EndNS - s.StartNS
		if parent == reqID {
			childNS += s.EndNS - s.StartNS
		}
		return s.ID
	}

	var optStart, execStart, harvestStart, last time.Time
	started := false // pre_exec closed
	begin := func(at time.Time) {
		if !started {
			child(reqID, t.front+".pre_exec", sm.sent, at)
			started = true
		}
	}
	for _, ev := range events {
		switch ev.kind {
		case trace.OptimizeStart:
			begin(ev.at)
			optStart = ev.at
			t.totals.optimizes++
		case trace.OptimizeDone:
			child(reqID, "optimizer.optimize", optStart, ev.at)
			t.totals.candidates += ev.candidates
			execStart, last = ev.at, ev.at
		case trace.CacheHit:
			begin(ev.at)
			execStart = ev.at
		case trace.CheckpointViolated:
			child(reqID, "executor.exec", execStart, ev.at)
			harvestStart = ev.at
			t.totals.violations++
		case trace.Reoptimize:
			child(reqID, "pop.harvest", harvestStart, ev.at)
			t.totals.reopts++
		case trace.QueryDone:
			child(reqID, "executor.exec", execStart, ev.at)
			t.totals.workTotal += ev.work
			last = ev.at
		case trace.CheckpointPassed:
			t.totals.passed++
		case trace.WorkerStart:
			t.totals.workersStarted++
		default:
			// cache verdicts other than a hit, worker drains, operator
			// stats and scheduler events bound no span.
		}
	}
	if last.IsZero() { // a failed request: no engine event closed it
		last = sm.sent
	}
	begin(last)
	replyID := child(reqID, t.front+".reply", last, sm.done)
	decodeNS := sm.done.Sub(sm.lineRead).Nanoseconds()
	child(replyID, "loadgen.decode", sm.lineRead, sm.done)

	// Self time is a span's duration minus its children's.
	t.totals.selfNS["request"] += root.EndNS - root.StartNS - childNS
	for _, s := range t.spans[reqID:] {
		t.totals.selfNS[s.Name] += s.EndNS - s.StartNS
	}
	t.totals.selfNS[t.front+".reply"] -= decodeNS
}

// writeSpans writes the spans as JSON Lines.
func writeSpans(path string, spans []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}
