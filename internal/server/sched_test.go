package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/trace"
)

// TestConfigResolvesWorkers pins the run-slot default New resolves and the
// scheduler reports: max(2, GOMAXPROCS/2), the value it had when it was
// derived from a worker budget of GOMAXPROCS. An explicit RunSlots is kept.
func TestConfigResolvesWorkers(t *testing.T) {
	cat := catalog.New()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct{ procs, slots int }{{1, 2}, {2, 2}, {5, 2}, {8, 4}} {
		runtime.GOMAXPROCS(tc.procs)
		if got := New(cat, Config{}).Scheduler().Config().RunSlots; got != tc.slots {
			t.Errorf("GOMAXPROCS %d: RunSlots 0 resolved to %d, want %d", tc.procs, got, tc.slots)
		}
	}
	if got := New(cat, Config{Sched: SchedConfig{RunSlots: 3}}).Scheduler().Config().RunSlots; got != 3 {
		t.Errorf("RunSlots 3 resolved to %d", got)
	}
}

// TestAdmitFIFOFairness fills every run slot, queues three waiters from
// different sessions, and verifies slots hand over in arrival order.
func TestAdmitFIFOFairness(t *testing.T) {
	s := NewScheduler(SchedConfig{RunSlots: 1, SessionQueue: 4})
	rel, err := s.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}

	const waiters = 3
	order := make(chan int, waiters)
	var wg sync.WaitGroup
	rels := make([]func(), waiters)
	for i := 0; i < waiters; i++ {
		// Sequential queue entry so arrival order is deterministic.
		started := make(chan struct{})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			close(started)
			r, err := s.Admit(context.Background(), string(rune('b'+i)))
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			rels[i] = r
			order <- i
		}(i)
		<-started
		// Wait until the waiter is actually queued before starting the next.
		deadline := time.Now().Add(2 * time.Second)
		for s.Stats().Queued != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued", i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	rel()
	for i := 0; i < waiters; i++ {
		got := <-order
		if got != i {
			t.Fatalf("slot %d handed to waiter %d, want FIFO", i, got)
		}
		rels[got]()
	}
	wg.Wait()
	st := s.Stats()
	if st.Running != 0 || st.Queued != 0 {
		t.Errorf("running=%d queued=%d after all releases", st.Running, st.Queued)
	}
	if st.AdmissionWaits != waiters {
		t.Errorf("admission waits %d, want %d", st.AdmissionWaits, waiters)
	}
	if st.MaxQueueDepth != waiters {
		t.Errorf("max queue depth %d, want %d", st.MaxQueueDepth, waiters)
	}
}

// TestBackpressurePerSession verifies one session cannot queue past its
// allowance while a second session still can.
func TestBackpressurePerSession(t *testing.T) {
	s := NewScheduler(SchedConfig{RunSlots: 1, SessionQueue: 2})
	rel, err := s.Admit(context.Background(), "hog")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Admit(ctx, "hog"); !errors.Is(err, context.Canceled) {
				t.Errorf("queued waiter: %v, want context.Canceled at teardown", err)
			}
		}()
		deadline := time.Now().Add(2 * time.Second)
		for s.Stats().Queued != i+1 {
			if time.Now().After(deadline) {
				t.Fatal("waiter never queued")
			}
			time.Sleep(time.Millisecond)
		}
	}

	_, err = s.Admit(context.Background(), "hog")
	var bp *BackpressureError
	if !errors.As(err, &bp) {
		t.Fatalf("third queued query: %v, want BackpressureError", err)
	}
	if bp.Depth != 2 {
		t.Errorf("backpressure depth %d, want 2", bp.Depth)
	}

	// A different session still has queue room.
	done := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := s.Admit(ctx, "other")
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Queued != 3 {
		if time.Now().After(deadline) {
			t.Fatal("other session's waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("other session: %v, want context.Canceled at teardown", err)
	}
	wg.Wait()
	if got := s.Stats().Backpressure; got != 1 {
		t.Errorf("backpressure count %d, want 1", got)
	}
}

// TestAdmitContextAbandon cancels a queued admission and verifies the queue
// entry is removed and the slot count stays consistent — including the race
// where the slot is handed over concurrently with the cancellation.
func TestAdmitContextAbandon(t *testing.T) {
	s := NewScheduler(SchedConfig{RunSlots: 1, SessionQueue: 8})
	rel, err := s.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Admit(ctx, "b")
		errCh <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned admit: %v, want context.Canceled", err)
	}
	rel()
	// The abandoned waiter must not have consumed the slot.
	rel2, err := s.Admit(context.Background(), "c")
	if err != nil {
		t.Fatalf("slot lost to abandoned waiter: %v", err)
	}
	rel2()
	st := s.Stats()
	if st.Running != 0 || st.Queued != 0 {
		t.Errorf("running=%d queued=%d, want 0/0", st.Running, st.Queued)
	}
}

// TestDrain verifies the drain protocol: queued waiters wake with
// ErrDraining, new admissions reject, and Drain returns at once — the query
// still running keeps its slot until it releases it.
func TestDrain(t *testing.T) {
	s := NewScheduler(SchedConfig{RunSlots: 1, SessionQueue: 4})
	rel, err := s.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}

	queuedErr := make(chan error, 1)
	go func() {
		_, err := s.Admit(context.Background(), "b")
		queuedErr <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	s.Drain()
	if st := s.Stats(); st.Running != 1 || !st.Draining {
		t.Fatalf("after Drain: running=%d draining=%v, want the in-flight query still running", st.Running, st.Draining)
	}
	if err := <-queuedErr; !errors.Is(err, ErrDraining) {
		t.Fatalf("queued waiter woke with %v, want ErrDraining", err)
	}
	if _, err := s.Admit(context.Background(), "c"); !errors.Is(err, ErrDraining) {
		t.Fatalf("new admission: %v, want ErrDraining", err)
	}
	rel()
	if st := s.Stats(); st.Running != 0 || st.Queued != 0 {
		t.Errorf("running=%d queued=%d after the last release, want 0/0", st.Running, st.Queued)
	}
}

// TestDrainDeadline verifies Server.Shutdown honors DrainTimeout when an
// in-flight query does not finish in time: it returns an error wrapping
// context.DeadlineExceeded once the query is let go.
func TestDrainDeadline(t *testing.T) {
	release := make(chan struct{})
	hook, inFlight := blockingOptions(release)
	srv := New(tpchCat(t, 0.002), Config{
		Sched:        SchedConfig{RunSlots: 1},
		Options:      hook,
		DrainTimeout: 20 * time.Millisecond,
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	stuck := make(chan error, 1)
	go func() {
		_, err := c.Query(q10SQL, Float(25))
		stuck <- err
	}()
	<-inFlight

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(context.Background()) }()
	// Shutdown closes the connection only after its wait gave up, so the
	// stuck query's client fails first; then the query may go.
	if err := <-stuck; err == nil {
		t.Error("the stuck query got a reply after DrainTimeout")
	}
	close(release)
	if err := <-shutdownErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown with a stuck query: %v, want DeadlineExceeded", err)
	}
	if err := c.Close(); err != nil {
		t.Logf("client close after server shutdown: %v", err)
	}
}

// TestSchedStatsMatchTrace holds the scheduler's counters to its own trace:
// through queueing, a backpressure bounce, a drain that wakes a waiter and
// an arrival after it, Rejects+Backpressure equals the admission_reject
// events and AdmissionWaits the admission_wait events.
func TestSchedStatsMatchTrace(t *testing.T) {
	s := NewScheduler(SchedConfig{RunSlots: 1, SessionQueue: 1})
	col := trace.NewCollector()
	s.Trace = col
	queue := func(session string) <-chan error {
		t.Helper()
		want := s.Stats().Queued + 1
		errCh := make(chan error, 1)
		go func() {
			rel, err := s.Admit(context.Background(), session)
			if err == nil {
				rel()
			}
			errCh <- err
		}()
		deadline := time.Now().Add(2 * time.Second)
		for s.Stats().Queued != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s never queued", session)
			}
			time.Sleep(time.Millisecond)
		}
		return errCh
	}

	rel, err := s.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	waited := queue("b")
	rel() // b is handed the slot after waiting, and releases it
	if err := <-waited; err != nil {
		t.Fatalf("queued admission: %v", err)
	}

	rel, err = s.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	drained := queue("c")
	var bp *BackpressureError
	if _, err := s.Admit(context.Background(), "c"); !errors.As(err, &bp) {
		t.Fatalf("second queued query of session c: %v, want BackpressureError", err)
	}
	s.Drain()
	if err := <-drained; !errors.Is(err, ErrDraining) {
		t.Fatalf("queued waiter woke with %v, want ErrDraining", err)
	}
	if _, err := s.Admit(context.Background(), "d"); !errors.Is(err, ErrDraining) {
		t.Fatalf("admission after drain: %v, want ErrDraining", err)
	}
	rel()

	st := s.Stats()
	rejects, waits := len(col.OfKind(trace.AdmissionReject)), len(col.OfKind(trace.AdmissionWait))
	if got := st.Rejects + st.Backpressure; got != int64(rejects) {
		t.Errorf("Rejects %d + Backpressure %d = %d, trace has %d admission_reject events",
			st.Rejects, st.Backpressure, got, rejects)
	}
	if st.AdmissionWaits != int64(waits) {
		t.Errorf("AdmissionWaits %d, trace has %d admission_wait events", st.AdmissionWaits, waits)
	}
	if st.Rejects != 2 || st.Backpressure != 1 || st.AdmissionWaits != 1 {
		t.Errorf("rejects=%d backpressure=%d waits=%d, want 2/1/1", st.Rejects, st.Backpressure, st.AdmissionWaits)
	}
}

// TestReleaseIdempotent verifies double-calling a release function frees the
// slot once.
func TestReleaseIdempotent(t *testing.T) {
	s := NewScheduler(SchedConfig{RunSlots: 2})
	rel, err := s.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	rel()
	rel()
	if got := s.Stats().Running; got != 0 {
		t.Errorf("running %d after double release, want 0", got)
	}
}
