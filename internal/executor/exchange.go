package executor

import (
	"context"
	"errors"
	"sync"

	"repro/internal/optimizer"
	"repro/internal/trace"
)

// This file implements morsel-style intra-query parallelism: the GATHER
// exchange fans a plan fragment out across DOP workers, each driving one
// partition clone over its morsel stripe, and merges their output streams.
//
// Determinism contract: the simulated work total of a parallel plan is
// bit-for-bit independent of the executed DOP. Every per-row charge uses the
// same weights at every DOP, one-time charges (exchange setup, index
// descent) are issued exactly once per logical operator, and
// the meter accumulates integer ticks so the summation order across workers
// cannot perturb the total. Only wall-clock time scales with workers.
//
// Error contract: a CheckViolation (or any error) raised by one worker
// reaches the consumer, which cancels the siblings via context and does not
// return the error until every worker of the exchange has flushed its local
// meter and exited — so the POP controller always harvests a quiescent tree.

// workerEvent emits one gather-worker lifecycle event when tracing is on.
// Recorders must be concurrency-safe: this is called from worker goroutines.
func (e *Executor) workerEvent(kind trace.Kind, worker, dop int, rows, work float64) {
	if tr := e.Trace; tr != nil {
		tr.Record(trace.Event{
			Kind:   kind,
			Worker: &trace.WorkerInfo{Phase: "gather", Worker: worker, DOP: dop, Rows: rows, Work: work},
		})
	}
}

// clampEvent emits a dop_clamp trace event recording that the worker gate
// granted fewer workers than the plan's DOP asked for (granted 0 = the
// exchange ran one worker without taking any from the pool).
func (e *Executor) clampEvent(want, granted int) {
	if tr := e.Trace; tr != nil {
		tr.Record(trace.Event{
			Kind:  trace.DOPClamp,
			Sched: &trace.SchedInfo{Want: want, Granted: granted},
		})
	}
}

// acquireWorkers resolves the width an exchange actually runs at. With no
// gate the plan's width is granted in full (the library's historical
// behavior). With a gate, the grant is whatever the pool can spare right
// now: less than asked clamps the DOP, and zero runs the exchange at DOP 1 —
// its one worker takes nothing from the pool, standing in for the consumer's
// goroutine, which only waits on the channel. The returned grant must be
// released exactly once by the owning node (poolleak checks this pairing).
func (e *Executor) acquireWorkers(want int) (dop int, grant workerGrant) {
	if want < 1 {
		want = 1
	}
	if e.Gate == nil {
		return want, workerGrant{}
	}
	got := e.Gate.AcquireWorkers(want)
	if got < want {
		e.clampEvent(want, got)
	}
	return max(got, 1), workerGrant{gate: e.Gate, n: got}
}

// exchangeBuffer is the per-worker capacity of an exchange's output channel.
const exchangeBuffer = 64

// rowMsg carries one transfer batch or a terminal error from a worker to the
// consumer.
type rowMsg struct {
	batch *Batch
	err   error
}

// applyPartition restricts every partitionable leaf of a clone to one morsel
// stripe.
func applyPartition(root Node, part, of int) {
	Walk(root, func(n Node) {
		if pn, ok := n.(partitioned); ok {
			pn.setPartition(part, of)
		}
	})
}

// buildClones builds one partition clone of the plan per worker, each
// charging a fresh worker-local meter.
func (e *Executor) buildClones(p *optimizer.Plan, dop int) (clones []Node, meters []*Meter, err error) {
	for i := 0; i < dop; i++ {
		lm := &Meter{}
		clone, err := e.workerCopy(lm).Build(p)
		if err != nil {
			return nil, nil, err
		}
		applyPartition(clone, i, dop)
		clones = append(clones, clone)
		meters = append(meters, lm)
	}
	return clones, meters, nil
}

// gatherNode runs DOP partition clones of its child concurrently and merges
// their output streams in arrival order. The consumer side holds the worker
// grant, the cancellation context, the channel the workers send transfer
// batches and errors on, the per-row ExchangeRow charge, held-batch
// recycling, the abort drain and the Close tail.
type gatherNode struct {
	base
	ex     *Executor
	dop    int
	grant  workerGrant
	clones []Node
	meters []*Meter

	ctx      context.Context
	cancel   context.CancelFunc // nil until Open
	ch       chan rowMsg
	wg       sync.WaitGroup
	stop     sync.Once
	surfaced bool  // an error was already returned from NextBatch
	drainErr error // first worker error discarded while draining on abort

	held   *Batch // last delivered transfer batch, recycled on the next pull
	exRowT int64  // pre-scaled per-row exchange charge
}

func (e *Executor) buildGather(p *optimizer.Plan) (Node, error) {
	// A clone sees one stripe of its edge, so a CHECK cloned into the
	// workers would count a partial stream. POP places CHECKs after the
	// optimizer parallelizes, above every gather; refuse anything else.
	if p.Children[0].Count(optimizer.OpCheck) > 0 {
		return nil, errors.New("executor: a gather cannot clone a CHECK into its workers")
	}
	dop, grant := e.acquireWorkers(e.dopFor(p))
	clones, meters, err := e.buildClones(p.Children[0], dop)
	if err != nil {
		grant.release()
		return nil, err
	}
	return &gatherNode{
		base:   base{plan: p, children: clones},
		ex:     e,
		dop:    dop,
		grant:  grant,
		clones: clones,
		meters: meters,
	}, nil
}

// Open arms the exchange — the context its workers watch and the per-row
// charge — and launches the dop workers plus a closer goroutine that closes
// the channel once every worker has exited: the happens-before edge the
// consumer reads.
func (n *gatherNode) Open() error {
	n.stats = NodeStats{Opened: true}
	n.charge(n.ex, n.ex.Cost.ExchangeSetup)
	n.ctx, n.cancel = context.WithCancel(context.Background())
	n.exRowT = Ticks(n.ex.Cost.ExchangeRow)
	n.ch = make(chan rowMsg, n.dop*exchangeBuffer)
	for w := 0; w < n.dop; w++ {
		n.wg.Add(1)
		go func(w int) {
			defer n.wg.Done()
			n.runWorker(w)
		}(w)
	}
	go func() {
		n.wg.Wait()
		close(n.ch)
	}()
	return nil
}

// runWorker runs partition clone w between its worker_start and worker_drain
// events, then drains the worker's local meter into the statement meter.
func (n *gatherNode) runWorker(w int) {
	e, clone, meter := n.ex, n.clones[w], n.meters[w]
	e.workerEvent(trace.WorkerStart, w, n.dop, 0, 0)
	defer func() {
		work := meter.Work()
		meter.drain(e.Meter)
		e.workerEvent(trace.WorkerDrain, w, n.dop, clone.Stats().RowsOut, work)
	}()
	runPartition(n.ctx, e, clone, n.ch)
}

// runPartition drives one partition clone to completion, handing each of its
// batches to the consumer as a pooled transfer copy (the clone reuses its own
// buffer immediately, so the transfer must own its rows), or its terminal
// error. Cancellation is a quiet stop: the canceller already holds the error
// that matters.
func runPartition(ctx context.Context, ex *Executor, clone Node, ch chan<- rowMsg) {
	err := func() error {
		if err := clone.Open(); err != nil {
			return err
		}
		for {
			if ctx.Err() != nil {
				return nil
			}
			b, err := clone.NextBatch(0)
			if err != nil || b == nil {
				return err
			}
			tb := cloneForTransfer(b, ex.batchCap)
			select {
			case ch <- rowMsg{batch: tb}:
			case <-ctx.Done():
				putBatch(tb)
				return nil
			}
		}
	}()
	if cerr := clone.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// The consumer (or an abort in progress) always drains the channel
		// until the closer goroutine closes it, so this send cannot deadlock.
		// Racing it against ctx.Done would randomly drop a cancelled clone's
		// Close error before the drain could retain it.
		ch <- rowMsg{err: err} //poplint:allow blockingcancel the consumer drains until the closer closes the channel, so this error delivery cannot wedge; a Done arm would race and drop the error
	}
}

// recycle returns the previously delivered batch to the pool.
func (n *gatherNode) recycle() {
	if n.held != nil {
		putBatch(n.held)
		n.held = nil
	}
}

// NextBatch surfaces worker transfer batches in arrival order, charging
// ExchangeRow per row. The previously delivered batch is recycled first,
// which is safe because the consumer's pull is the end of that batch's
// validity window. A worker error aborts the exchange. max is advisory — a
// transfer batch arrives sized by its producing worker; an enclosing CHECK
// handles oversized batches through its crossing logic.
func (n *gatherNode) NextBatch(max int) (*Batch, error) {
	n.recycle()
	msg, ok := <-n.ch
	if !ok {
		n.stats.Done = true
		return nil, nil
	}
	if msg.err != nil {
		n.surfaced = true
		n.abort()
		return nil, msg.err
	}
	n.chargeTicks(n.ex, n.exRowT, msg.batch.Len())
	n.stats.RowsOut += float64(msg.batch.Len())
	n.held = msg.batch
	return msg.batch, nil
}

// abort cancels outstanding workers and drains the channel until the closer
// goroutine closes it, guaranteeing every worker has exited and flushed. The
// first genuine worker error found while draining is retained: when the
// consumer stops early (LIMIT) rather than on a surfaced error, a clone's
// Close failure would otherwise vanish in the drain. A drained CheckViolation
// is not retained — a consumer that stopped needing rows makes a racing
// cardinality check moot.
func (n *gatherNode) abort() {
	n.stop.Do(func() {
		n.cancel()
		var cv *CheckViolation
		for msg := range n.ch {
			//poplint:allow chargeflow a drained violation is discarded as moot, not handled; surfaced violations are traced by the POP controller
			if msg.err != nil && n.drainErr == nil && !errors.As(msg.err, &cv) {
				n.drainErr = msg.err
			}
		}
	})
}

// Close ends the exchange: an unopened one closes its clones; an opened one
// aborts (the workers close their own clones), recycles the held batch, and
// reports the retained drain error unless an error already reached the
// consumer through NextBatch.
func (n *gatherNode) Close() error {
	defer n.grant.release()
	if n.cancel == nil {
		return n.closeChildren()
	}
	n.abort()
	n.recycle()
	if n.surfaced {
		return nil
	}
	return n.drainErr
}
