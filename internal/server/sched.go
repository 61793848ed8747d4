// Package server is the multi-session network front end of the engine: a TCP
// line-JSON protocol and an HTTP endpoint serving concurrent sessions over
// one shared catalog, row store and plan cache. Its performance core is the
// Scheduler, a global arbiter of one bounded worker pool between inter-query
// parallelism (admission control: bounded running-query slots with a fair
// FIFO queue and per-session backpressure) and intra-query parallelism (every
// exchange acquires its workers from the pool via executor.WorkerGate and
// clamps its DOP — down to one worker that takes nothing from the pool —
// when the pool is contended). The scheduler changes when and how wide a query runs, never
// what it computes: per-query simulated work stays bit-identical to library
// execution (see internal/pop's gate tests and DESIGN.md §12).
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/executor"
	"repro/internal/trace"
)

// ErrDraining is returned for queries arriving after shutdown began. The
// wire protocol maps it to the typed code "draining".
var ErrDraining = errors.New("server: draining, new queries rejected")

// BackpressureError reports a session that exceeded its admission-queue
// allowance: the session already has SessionQueue queries waiting, so this
// one is turned away instead of queued. The wire protocol maps it to the
// typed code "backpressure".
type BackpressureError struct {
	Session string
	Depth   int
}

// Error implements the error interface.
func (e *BackpressureError) Error() string {
	return fmt.Sprintf("server: session %s backpressured: %d queries already queued", e.Session, e.Depth)
}

// SchedConfig sizes the scheduler.
type SchedConfig struct {
	// WorkerBudget is the global cap on exchange workers out at once across
	// every running query. Default GOMAXPROCS.
	WorkerBudget int
	// RunSlots bounds concurrently executing queries; arrivals beyond it
	// queue FIFO. Default max(2, WorkerBudget/2).
	RunSlots int
	// SessionQueue is the per-session cap on queued admissions before new
	// arrivals from that session get a BackpressureError. Default 4.
	SessionQueue int
}

// withDefaults resolves zero fields to their documented defaults.
func (c SchedConfig) withDefaults() SchedConfig {
	if c.WorkerBudget <= 0 {
		c.WorkerBudget = runtime.GOMAXPROCS(0)
	}
	if c.RunSlots <= 0 {
		c.RunSlots = c.WorkerBudget / 2
		if c.RunSlots < 2 {
			c.RunSlots = 2
		}
	}
	if c.SessionQueue <= 0 {
		c.SessionQueue = 4
	}
	return c
}

// waiter is one queued admission. The scheduler hands a slot over by setting
// err (nil = admitted) and closing ready, both under the scheduler mutex, so
// observing the close happens-after the write.
type waiter struct {
	session string
	ready   chan struct{}
	err     error
}

// Scheduler owns the worker pool and the admission queue. It implements
// executor.WorkerGate for intra-query width arbitration; Admit/release
// implement inter-query admission control. All methods are safe for
// concurrent use.
type Scheduler struct {
	cfg SchedConfig

	// Trace receives admission_wait / admission_reject events when non-nil
	// (dop_clamp events are emitted by the executor). Set before serving.
	Trace trace.Recorder

	// Worker-pool occupancy is a lock-free CAS loop so exchange build paths
	// never contend on the admission mutex.
	workersOut atomic.Int64
	peakOut    atomic.Int64
	clamps     atomic.Int64
	inlineRuns atomic.Int64

	mu           sync.Mutex
	running      int
	queue        []*waiter
	perSess      map[string]int
	draining     bool
	admitted     int64
	waits        int64
	waitNS       int64
	rejects      int64 // draining rejections
	backpressure int64
	maxDepth     int
}

// NewScheduler returns a scheduler for the given configuration (zero fields
// take their defaults).
func NewScheduler(cfg SchedConfig) *Scheduler {
	return &Scheduler{cfg: cfg.withDefaults(), perSess: make(map[string]int)}
}

// Config reports the resolved configuration.
func (s *Scheduler) Config() SchedConfig { return s.cfg }

var _ executor.WorkerGate = (*Scheduler)(nil)

// AcquireWorkers implements executor.WorkerGate: it grants up to want
// workers, never letting total occupancy exceed the budget. A zero grant
// runs the exchange's one DOP-1 worker outside the pool and is counted in
// InlineRuns. Lock-free: a CAS loop on the occupancy counter, so the strict
// invariant out+grant ≤ budget holds at every interleaving.
func (s *Scheduler) AcquireWorkers(want int) int {
	if want < 0 {
		want = 0
	}
	for {
		out := s.workersOut.Load()
		free := int64(s.cfg.WorkerBudget) - out
		if free <= 0 {
			s.clamps.Add(1)
			s.inlineRuns.Add(1)
			return 0
		}
		got := int64(want)
		if got > free {
			got = free
		}
		if !s.workersOut.CompareAndSwap(out, out+got) {
			continue
		}
		for {
			p := s.peakOut.Load()
			if out+got <= p || s.peakOut.CompareAndSwap(p, out+got) {
				break
			}
		}
		if int(got) < want {
			s.clamps.Add(1)
			if got == 0 {
				s.inlineRuns.Add(1)
			}
		}
		return int(got)
	}
}

// ReleaseWorkers implements executor.WorkerGate.
func (s *Scheduler) ReleaseWorkers(n int) {
	if n > 0 {
		s.workersOut.Add(-int64(n))
	}
}

// Admit blocks until the query may execute (a run slot is free or handed
// over) and returns a release function that must be called exactly once when
// the query finishes. It fails fast with ErrDraining during shutdown, with a
// *BackpressureError when the session's queue allowance is exhausted, and
// with ctx.Err() if the caller gives up while queued.
func (s *Scheduler) Admit(ctx context.Context, session string) (func(), error) {
	s.mu.Lock()
	if s.draining {
		s.rejects++
		s.mu.Unlock()
		s.rejectEvent("draining")
		return nil, ErrDraining
	}
	if s.running < s.cfg.RunSlots {
		s.running++
		s.admitted++
		s.mu.Unlock()
		return s.releaseFunc(), nil
	}
	if s.perSess[session] >= s.cfg.SessionQueue {
		depth := s.perSess[session]
		s.backpressure++
		s.mu.Unlock()
		s.rejectEvent("backpressure")
		return nil, &BackpressureError{Session: session, Depth: depth}
	}
	w := &waiter{session: session, ready: make(chan struct{})}
	s.queue = append(s.queue, w)
	s.perSess[session]++
	depth := len(s.queue)
	if depth > s.maxDepth {
		s.maxDepth = depth
	}
	s.mu.Unlock()

	start := time.Now()
	select {
	case <-w.ready:
		wait := time.Since(start)
		s.mu.Lock()
		if w.err != nil {
			// Woken by Drain: one reject, not a wait, as the trace says.
			s.rejects++
			s.mu.Unlock()
			s.rejectEvent("draining")
			return nil, w.err
		}
		s.waits++
		s.waitNS += wait.Nanoseconds()
		s.admitted++
		s.mu.Unlock()
		if tr := s.Trace; tr != nil {
			tr.Record(trace.Event{
				Kind:  trace.AdmissionWait,
				Sched: &trace.SchedInfo{WaitNS: wait.Nanoseconds(), Depth: depth},
			})
		}
		return s.releaseFunc(), nil
	case <-ctx.Done():
		s.mu.Lock()
		removed := false
		for i, qw := range s.queue {
			if qw == w {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				s.dropSess(w.session)
				removed = true
				break
			}
		}
		s.mu.Unlock()
		if !removed {
			// The slot was handed to this waiter concurrently: ready was
			// closed in the same critical section that removed it from the
			// queue, so this receive cannot block. Give the slot back.
			<-w.ready
			if w.err == nil {
				s.releaseSlot()
			}
		}
		return nil, ctx.Err()
	}
}

// rejectEvent emits an admission_reject trace event.
func (s *Scheduler) rejectEvent(reason string) {
	if tr := s.Trace; tr != nil {
		tr.Record(trace.Event{
			Kind:  trace.AdmissionReject,
			Sched: &trace.SchedInfo{Reason: reason},
		})
	}
}

// dropSess decrements a session's queued count, removing empty entries so
// the map does not grow with session churn. Callers hold s.mu.
func (s *Scheduler) dropSess(session string) {
	if s.perSess[session] <= 1 {
		delete(s.perSess, session)
	} else {
		s.perSess[session]--
	}
}

// releaseFunc wraps releaseSlot in a sync.Once so double release (e.g. an
// error path that also reaches a deferred release) cannot corrupt the slot
// count.
func (s *Scheduler) releaseFunc() func() {
	var once sync.Once
	return func() { once.Do(s.releaseSlot) }
}

// releaseSlot frees one run slot, handing it to the queue head (FIFO) if one
// is waiting. Nothing queues once draining starts: Admit checks draining
// under the same mutex, and Drain empties the queue.
func (s *Scheduler) releaseSlot() {
	s.mu.Lock()
	s.running--
	if len(s.queue) > 0 {
		w := s.queue[0]
		s.queue = s.queue[1:]
		s.dropSess(w.session)
		s.running++
		close(w.ready)
	}
	s.mu.Unlock()
}

// Drain moves the scheduler into draining mode: new admissions are rejected
// and queued waiters are woken with ErrDraining (each counted once, by its
// Admit). Running queries keep their slots; Drain does not wait for them —
// Server.Shutdown waits for every admitted query's reply.
func (s *Scheduler) Drain() {
	s.mu.Lock()
	s.draining = true
	for _, w := range s.queue {
		s.dropSess(w.session)
		w.err = ErrDraining
		close(w.ready)
	}
	s.queue = nil
	s.mu.Unlock()
}

// SchedStats is a point-in-time snapshot of the scheduler's counters.
type SchedStats struct {
	WorkerBudget    int   `json:"worker_budget"`
	WorkersOut      int64 `json:"workers_out"`
	PeakWorkers     int64 `json:"peak_workers"`
	DOPClamps       int64 `json:"dop_clamps"`
	InlineRuns      int64 `json:"inline_runs"`
	RunSlots        int   `json:"run_slots"`
	Running         int   `json:"running"`
	Queued          int   `json:"queued"`
	MaxQueueDepth   int   `json:"max_queue_depth"`
	Admitted        int64 `json:"admitted"`
	AdmissionWaits  int64 `json:"admission_waits"`
	AdmissionWaitNS int64 `json:"admission_wait_ns"`
	Rejects         int64 `json:"rejects"`
	Backpressure    int64 `json:"backpressure"`
	Draining        bool  `json:"draining"`
}

// Stats snapshots the scheduler.
func (s *Scheduler) Stats() SchedStats {
	s.mu.Lock()
	st := SchedStats{
		WorkerBudget:    s.cfg.WorkerBudget,
		WorkersOut:      s.workersOut.Load(),
		PeakWorkers:     s.peakOut.Load(),
		DOPClamps:       s.clamps.Load(),
		InlineRuns:      s.inlineRuns.Load(),
		RunSlots:        s.cfg.RunSlots,
		Running:         s.running,
		Queued:          len(s.queue),
		MaxQueueDepth:   s.maxDepth,
		Admitted:        s.admitted,
		AdmissionWaits:  s.waits,
		AdmissionWaitNS: s.waitNS,
		Rejects:         s.rejects,
		Backpressure:    s.backpressure,
		Draining:        s.draining,
	}
	s.mu.Unlock()
	return st
}

// WriteText renders the scheduler's configuration and cumulative counts in
// metrics.Snapshot.WriteText's two-column layout, every label prefixed
// "sched". The point-in-time gauges (running, queued, workers out,
// draining) are in the JSON form only.
func (st SchedStats) WriteText(w io.Writer) {
	line := func(name string, v int64) { fmt.Fprintf(w, "%-22s %d\n", "sched "+name, v) }
	line("worker budget", int64(st.WorkerBudget))
	line("peak workers", st.PeakWorkers)
	line("dop clamps", st.DOPClamps)
	line("inline runs", st.InlineRuns)
	line("admitted", st.Admitted)
	line("admission waits", st.AdmissionWaits)
	line("admit wait ns", st.AdmissionWaitNS)
	line("max queue depth", int64(st.MaxQueueDepth))
	line("drain rejects", st.Rejects)
	line("backpressure", st.Backpressure)
}
