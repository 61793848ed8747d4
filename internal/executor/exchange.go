package executor

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/trace"
)

// workerEvent emits one exchange-worker lifecycle event when tracing is on.
// Recorders must be concurrency-safe: this is called from worker goroutines.
func (e *Executor) workerEvent(kind trace.Kind, phase string, worker, dop int, rows, work float64) {
	if tr := e.Trace; tr != nil {
		tr.Record(trace.Event{
			Kind:   kind,
			Worker: &trace.WorkerInfo{Phase: phase, Worker: worker, DOP: dop, Rows: rows, Work: work},
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

// runWorker runs one exchange worker's body between its worker_start and
// worker_drain events, then drains the worker's local meter into the
// statement meter.
func (e *Executor) runWorker(phase string, w, dop int, clone Node, meter *Meter, body func()) {
	e.workerEvent(trace.WorkerStart, phase, w, dop, 0, 0)
	defer func() {
		work := meter.Work()
		meter.drain(e.Meter)
		e.workerEvent(trace.WorkerDrain, phase, w, dop, clone.Stats().RowsOut, work)
	}()
	body()
}

// This file implements morsel-style intra-query parallelism: exchange
// operators (GATHER, and REPART folded into a partitioned hash join) that
// fan a plan fragment out across DOP workers.
//
// Determinism contract: the simulated work total of a parallel plan is
// bit-for-bit independent of the executed DOP. Every per-row charge uses the
// same weights at every DOP, one-time charges (exchange setup, index
// descent, spill staging) are issued exactly once per logical operator, and
// the meter accumulates integer ticks so the summation order across workers
// cannot perturb the total. Only wall-clock time scales with workers.
//
// Error contract: a CheckViolation (or any error) raised by one worker
// cancels its siblings via context, and the consumer does not observe the
// error until every worker of the exchange has flushed its local meter and
// exited — so the POP controller always harvests a quiescent tree.

// exchangeBuffer is the per-worker capacity of an exchange's output channel.
const exchangeBuffer = 64

// rowMsg carries one transfer batch or a terminal error from a worker to the
// consumer.
type rowMsg struct {
	batch *Batch
	err   error
}

// buildExchange dispatches a GATHER plan node to its executable form: a
// partitioned hash join when the gathered child is a hash join over two
// repartitioned inputs, a plain gather otherwise. Bare REPART nodes occur
// only as children of a partitioned join and are consumed by it.
func (e *Executor) buildExchange(p *optimizer.Plan) (Node, error) {
	if p.ExKind == optimizer.ExRepart {
		return nil, fmt.Errorf("executor: repartition exchange outside a partitioned hash join")
	}
	if c := p.Children[0]; c.Op == optimizer.OpHSJN && len(c.Children) == 2 &&
		isRepartEdge(c.Children[0]) && isRepartEdge(c.Children[1]) {
		return e.buildParallelHSJN(p, c)
	}
	return e.buildGather(p)
}

// isRepartEdge recognizes a repartitioned join input, possibly with CHECK
// operators layered on the edge by the POP post-pass.
func isRepartEdge(p *optimizer.Plan) bool {
	for p.Op == optimizer.OpCheck {
		p = p.Children[0]
	}
	return p.Op == optimizer.OpExchange && p.ExKind == optimizer.ExRepart
}

// stripRepart removes REPART exchange nodes from a join input's plan: the
// partitioned join performs the repartitioning itself. CHECK nodes on the
// edge are kept — their counters are shared across partition clones, so
// their position inside the partition pipeline does not change what they
// count.
func stripRepart(p *optimizer.Plan) *optimizer.Plan {
	if p.Op == optimizer.OpExchange && p.ExKind == optimizer.ExRepart {
		return stripRepart(p.Children[0])
	}
	changed := false
	kids := make([]*optimizer.Plan, len(p.Children))
	for i, c := range p.Children {
		kids[i] = stripRepart(c)
		changed = changed || kids[i] != c
	}
	if !changed {
		return p
	}
	n := optimizer.CloneNode(p)
	copy(n.Children, kids)
	return n
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

// exchangeStub stands in for an exchange edge in the executable tree: it
// owns the partition clones of one plan fragment so tree walks (stats
// harvesting, check collection) can see them, while the enclosing operator
// drives the clones directly.
type exchangeStub = inertNode

func newExchangeStub(p *optimizer.Plan, clones []Node) *exchangeStub {
	return &exchangeStub{base{plan: p, children: clones}}
}

// consumer is the consumer half both exchanges embed: the worker grant, the
// cancellation context, the channel the streaming workers send transfer
// batches and errors on, the per-row ExchangeRow charge, held-batch
// recycling, the abort drain and the Close tail.
type consumer struct {
	ex    *Executor
	dop   int
	grant workerGrant

	ctx      context.Context
	cancel   context.CancelFunc // nil until Open
	ch       chan rowMsg        // nil until the streaming workers launch
	wg       sync.WaitGroup
	stop     sync.Once
	surfaced bool  // an error was already returned from Next
	drainErr error // first worker error discarded while draining on abort

	held   *Batch // last delivered transfer batch, recycled on the next pull
	exRowT int64  // pre-scaled per-row exchange charge
}

// begin arms the exchange at Open: the context its workers watch and the
// per-row charge.
func (c *consumer) begin() {
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.exRowT = Ticks(c.ex.Cost.ExchangeRow)
	c.held = nil
}

// spawn launches the dop streaming workers, run(w) each, and a closer
// goroutine that calls last once every worker has exited and then closes the
// channel — the happens-before edge the consumer reads.
func (c *consumer) spawn(run func(w int), last func()) {
	c.ch = make(chan rowMsg, c.dop*exchangeBuffer)
	for w := 0; w < c.dop; w++ {
		c.wg.Add(1)
		go func(w int) {
			defer c.wg.Done()
			run(w)
		}(w)
	}
	go func() {
		c.wg.Wait()
		last()
		close(c.ch)
	}()
}

// recycle returns the previously delivered batch to the pool.
func (c *consumer) recycle() {
	if c.held != nil {
		putBatch(c.held)
		c.held = nil
	}
}

// receive surfaces the next worker transfer batch in arrival order, charging
// ExchangeRow per logical row to node b. The previously delivered batch is
// recycled first, which is safe because the consumer's pull is the end of
// that batch's validity window. A worker error aborts the exchange. ok is
// false once every worker has exited and the channel is closed.
func (c *consumer) receive(b *base) (batch *Batch, ok bool, err error) {
	c.recycle()
	msg, ok := <-c.ch
	if !ok {
		return nil, false, nil
	}
	if msg.err != nil {
		c.surfaced = true
		c.abort()
		return nil, true, msg.err
	}
	b.chargeTicks(c.ex, c.exRowT, msg.batch.Len())
	b.stats.RowsOut += float64(msg.batch.Len())
	c.held = msg.batch
	return msg.batch, true, nil
}

// abort cancels outstanding workers and drains the channel until the closer
// goroutine closes it, guaranteeing every worker has exited and flushed. The
// first genuine worker error found while draining is retained: when the
// consumer stops early (LIMIT) rather than on a surfaced error, a clone's
// Close failure would otherwise vanish in the drain. A drained CheckViolation
// is not retained — a consumer that stopped needing rows makes a racing
// cardinality check moot.
func (c *consumer) abort() {
	c.stop.Do(func() {
		c.cancel()
		if c.ch == nil {
			return
		}
		var cv *CheckViolation
		for msg := range c.ch {
			//poplint:allow chargeflow a drained violation is discarded as moot, not handled; surfaced violations are traced by the POP controller
			if msg.err != nil && c.drainErr == nil && !errors.As(msg.err, &cv) {
				c.drainErr = msg.err
			}
		}
	})
}

// finish is the Close tail of an opened exchange: abort (the workers close
// their own clones), recycle the held batch, and report the retained drain
// error unless an error already reached the consumer through Next.
func (c *consumer) finish() error {
	c.abort()
	c.recycle()
	if c.surfaced {
		return nil
	}
	return c.drainErr
}

// gatherNode runs DOP partition clones of its child concurrently and merges
// their output streams in arrival order.
type gatherNode struct {
	base
	consumer
	clones []Node
	meters []*Meter
}

func (e *Executor) buildGather(p *optimizer.Plan) (Node, error) {
	dop, grant := e.acquireWorkers(e.dopFor(p))
	clones, meters, err := e.buildClones(p.Children[0], dop)
	if err != nil {
		grant.release()
		return nil, err
	}
	return &gatherNode{
		base:     base{plan: p, children: clones},
		consumer: consumer{ex: e, dop: dop, grant: grant},
		clones:   clones,
		meters:   meters,
	}, nil
}

func (n *gatherNode) Open() error {
	n.stats = NodeStats{Opened: true}
	n.charge(n.ex, n.ex.Cost.ExchangeSetup)
	n.begin()
	n.spawn(func(w int) {
		n.ex.runWorker("gather", w, n.dop, n.clones[w], n.meters[w], func() {
			runPartition(n.ctx, n.ex, n.clones[w], n.ch)
		})
	}, func() {})
	return nil
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
		// until the closer goroutine closes it, so this send cannot deadlock
		// — same argument as the probe worker's error delivery. Racing it
		// against ctx.Done would randomly drop a cancelled clone's Close
		// error before the drain could retain it.
		ch <- rowMsg{err: err} //poplint:allow blockingcancel the consumer drains until the closer closes the channel, so this error delivery cannot wedge; a Done arm would race and drop the error
	}
}

// NextBatch surfaces worker transfer batches in arrival order. max is
// advisory — a transfer batch arrives sized by its producing worker; an
// enclosing CHECK handles oversized batches through its crossing logic.
func (n *gatherNode) NextBatch(max int) (*Batch, error) {
	b, ok, err := n.receive(&n.base)
	if !ok {
		n.stats.Done = true
	}
	return b, err
}

func (n *gatherNode) Close() error {
	defer n.grant.release()
	if n.cancel == nil {
		return n.closeChildren()
	}
	return n.finish()
}

// parallelHSJNNode is the partitioned hash join: DOP workers drain morsel
// stripes of the build input and route rows to hash partitions by key hash;
// DOP workers then build one hash table per partition; DOP probe workers
// stream morsel stripes of the probe input, each probing only the partition
// its row hashes to. Its Plan() is the underlying HSJN node, so stats
// harvesting sees the join, not the exchange.
type parallelHSJNNode struct {
	base
	consumer

	probeKeys []int
	buildKeys []int
	join      joinOutput // each probe worker copies it

	probeClones, buildClones []Node
	probeMeters, buildMeters []*Meter
	probeStub, buildStub     *exchangeStub

	parts      []joinTable // partition p holds the build rows whose key hash is p mod dop
	spillExtra float64

	// analyzeTicks accumulates the work this node's worker loops charge
	// (exchange routing, hash build/probe) in analyze mode. Worker loops run
	// concurrently, so attribution is batched per worker into an atomic and
	// folded into the node's stats at collection time via extraWork.
	analyzeTicks atomic.Int64

	// final holds an end-of-stream lower-bound violation: it reaches the
	// consumer once every probe worker has exited, behind the rows the
	// siblings joined before it.
	final atomic.Pointer[error]
}

func (e *Executor) buildParallelHSJN(gp, jp *optimizer.Plan) (Node, error) {
	dop, grant := e.acquireWorkers(e.dopFor(gp))
	n := &parallelHSJNNode{base: base{plan: jp}, consumer: consumer{ex: e, dop: dop, grant: grant}}
	built := false
	defer func() {
		if !built {
			n.grant.release()
		}
	}()
	var err error
	n.probeKeys, n.buildKeys, n.join, err = e.equiJoin(jp)
	if err != nil {
		return nil, err
	}
	probePlan := stripRepart(jp.Children[0])
	buildPlan := stripRepart(jp.Children[1])
	n.probeClones, n.probeMeters, err = e.buildClones(probePlan, dop)
	if err != nil {
		return nil, err
	}
	n.buildClones, n.buildMeters, err = e.buildClones(buildPlan, dop)
	if err != nil {
		return nil, err
	}
	// The stubs carry the original (repartitioned) child plans so tree walks
	// see the join's edges with their original metadata.
	n.probeStub = newExchangeStub(jp.Children[0], n.probeClones)
	n.buildStub = newExchangeStub(jp.Children[1], n.buildClones)
	n.children = []Node{n.probeStub, n.buildStub}
	built = true
	return n, nil
}

// addAnalyzeTicks folds one worker's accumulated loop work into the node's
// atomic tick counter (fixed-point, so cross-worker summation order cannot
// perturb the total).
func (n *parallelHSJNNode) addAnalyzeTicks(t int64) {
	if t > 0 {
		addSat(&n.analyzeTicks, t)
	}
}

// extraWork reports the analyze-mode work charged by this node's worker
// loops, which runs outside the consumer-thread charge path. CollectStats
// folds it into the node's Work column.
func (n *parallelHSJNNode) extraWork() float64 {
	return float64(n.analyzeTicks.Load()) / meterTick
}

// parallel runs f(0) … f(dop-1) concurrently and waits for all of them.
func parallel(dop int, f func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < dop; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}

func (n *parallelHSJNNode) Open() error {
	n.stats = NodeStats{Opened: true}
	// One setup charge per exchange in the plan fragment: the gather plus
	// the two repartitions.
	n.charge(n.ex, 3*n.ex.Cost.ExchangeSetup)
	n.begin()
	n.buildStub.stats.Opened = true

	// Phase 1: partitioned build. Each worker drains its morsel stripe into
	// per-partition, per-worker buffers — no locks on the hot path.
	bufs := make([][][]schema.Row, n.dop)
	for p := range bufs {
		bufs[p] = make([][]schema.Row, n.dop)
	}
	all := make([][]schema.Row, n.dop)
	errs := make([]error, n.dop)
	parallel(n.dop, func(w int) {
		n.ex.runWorker("build", w, n.dop, n.buildClones[w], n.buildMeters[w], func() {
			errs[w] = n.runBuildWorker(w, bufs, &all[w])
		})
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// The build edge counts every row, NULL-keyed ones included. At DOP 1
	// the one partition builds from the worker's rows themselves.
	total := 0
	for w := range all {
		total += len(all[w])
	}
	if n.dop == 1 {
		bufs[0] = all
	}
	n.buildStub.stats.RowsOut = float64(total)
	n.buildStub.stats.Done = true

	// Phase 2: one hash table per partition, built in parallel from the
	// workers' buffers in worker order.
	n.parts = make([]joinTable, n.dop)
	parallel(n.dop, func(p int) {
		n.parts[p].build(n.ex, n.buildKeys, bufs[p]...)
	})
	n.spillExtra = n.stageBuild(n.ex, total)

	// Phase 3: concurrent probe.
	n.probeStub.stats.Opened = true
	n.spawn(func(w int) {
		n.ex.runWorker("probe", w, n.dop, n.probeClones[w], n.probeMeters[w], func() {
			n.runProbeWorker(w)
		})
	}, func() {
		// Aggregate the probe edge's stats before the close signals the
		// consumer.
		rows := 0.0
		done := true
		for _, c := range n.probeClones {
			rows += c.Stats().RowsOut
			done = done && c.Stats().Done
		}
		n.probeStub.stats.RowsOut = rows
		n.probeStub.stats.Done = done
	})
	return nil
}

// runBuildWorker drains one build stripe, retaining rows and, above DOP 1,
// routing keyed rows into its buffers bufs[partition][w]. On error it
// cancels sibling workers. Each batch's rows are retained (cloned when
// ephemeral) and then routed, with one meter operation per batch.
func (n *parallelHSJNNode) runBuildWorker(w int, bufs [][][]schema.Row, all *[]schema.Row) error {
	clone := n.buildClones[w]
	pr := &n.ex.Cost
	meter := n.buildMeters[w]
	rowT := Ticks(pr.ExchangeRow + pr.HashBuildRow)
	var awT int64 // loop ticks attributed to the join node in analyze mode
	defer func() { n.addAnalyzeTicks(awT) }()
	err := func() error {
		if err := clone.Open(); err != nil {
			return err
		}
		for {
			if n.ctx.Err() != nil {
				return nil
			}
			b, err := clone.NextBatch(0)
			if err != nil || b == nil {
				return err
			}
			t := mulTicksSat(rowT, int64(b.Len()))
			meter.AddTicks(t)
			if n.ex.Analyze {
				awT = addTicksSat(awT, t)
			}
			start := len(*all)
			*all = appendBatchRows(*all, b)
			if n.dop == 1 {
				continue
			}
			for _, row := range (*all)[start:] {
				if h, keyed := n.ex.keyHash(row, n.buildKeys, false); keyed {
					p := int(h % uint64(n.dop))
					bufs[p][w] = append(bufs[p][w], row)
				}
			}
		}
	}()
	if cerr := clone.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		n.cancel()
	}
	return err
}

// runProbeWorker streams one probe stripe against the partitioned hash
// tables (read-only after phase 2), emitting joined rows to the consumer.
func (n *parallelHSJNNode) runProbeWorker(w int) {
	clone := n.probeClones[w]
	pr := &n.ex.Cost
	meter := n.probeMeters[w]
	probeT := Ticks(pr.ExchangeRow + pr.HashProbeRow + n.spillExtra)
	outT := Ticks(pr.OutputRow)
	var awT int64 // loop ticks attributed to the join node in analyze mode
	defer func() { n.addAnalyzeTicks(awT) }()
	err := clone.Open()
	streamed := err == nil
	if streamed {
		err = n.probeLoop(clone, meter, probeT, outT, &awT)
	}
	if cerr := clone.Close(); err == nil {
		err = cerr
	}
	if cv, ok := err.(*CheckViolation); ok && cv.Exact && streamed {
		// The lower bound fires in the last worker to reach end of stream,
		// when every sibling has ended too but may not yet have flushed its
		// last joined rows: the consumer sees it after the channel closes.
		// An exact violation from Open is no end of stream and goes below.
		n.final.CompareAndSwap(nil, &err)
	} else if err != nil {
		// Deliver the error before cancelling the siblings: the consumer (or
		// an abort in progress) always drains the channel until the closer
		// goroutine closes it, so a blocking send cannot deadlock — whereas
		// cancelling first would race this send against the closed Done
		// channel and could drop the violation.
		n.ch <- rowMsg{err: err} //poplint:allow blockingcancel deliberate: deliver the error before cancel; the consumer drains until close, so this cannot wedge (see comment above)
		n.cancel()
	}
	if err != nil && n.ex.endHold != nil {
		n.ex.endHold(err)
	}
}

// probeLoop is a probe worker's loop: it pulls probe batches from the clone,
// carves joined rows into pooled transfer batches (flushed to the consumer
// when full), and issues one meter operation per probe batch plus one per
// batch of emitted rows.
func (n *parallelHSJNNode) probeLoop(clone Node, meter *Meter, probeT, outT int64, awT *int64) error {
	join := n.join // this worker's own filter scratch
	out := getBatch(n.ex.batchCap)
	defer func() {
		if out != nil {
			putBatch(out)
		}
	}()
	// flush hands the accumulated transfer batch to the consumer; it reports
	// false when cancellation won the race, which ends the loop quietly.
	flush := func() bool {
		if out.Len() == 0 {
			return true
		}
		select {
		case n.ch <- rowMsg{batch: out}:
			out = getBatch(n.ex.batchCap)
			return true
		case <-n.ctx.Done():
			return false
		}
	}
	for {
		if n.ctx.Err() != nil {
			return nil
		}
		b, err := clone.NextBatch(0)
		if err != nil || b == nil {
			if err == nil && n.ex.endHold != nil {
				n.ex.endHold(nil)
			}
			flush() // rows joined before the end, or the error, reach the consumer first
			return err
		}
		t := mulTicksSat(probeT, int64(b.Len()))
		meter.AddTicks(t)
		if n.ex.Analyze {
			*awT = addTicksSat(*awT, t)
		}
		emitted := 0
		charge := func() {
			et := mulTicksSat(outT, int64(emitted))
			meter.AddTicks(et)
			if n.ex.Analyze {
				*awT = addTicksSat(*awT, et)
			}
		}
		for _, row := range b.Rows {
			h, keyed := n.ex.keyHash(row, n.probeKeys, false)
			if !keyed {
				continue
			}
			for _, br := range n.parts[h%uint64(n.dop)].bucket(h) {
				if !keysEqual(row, n.probeKeys, br, n.buildKeys) {
					continue
				}
				kept, ferr := join.emit(out, row, br)
				if ferr != nil {
					charge()
					return ferr
				}
				if !kept {
					continue
				}
				emitted++
				if out.Len() >= n.ex.batchCap {
					if !flush() {
						charge()
						return nil
					}
				}
			}
		}
		charge()
	}
}

// NextBatch surfaces probe-worker transfer batches in arrival order, and then
// a held end-of-stream violation. max is advisory, exactly as for
// gatherNode.NextBatch.
func (n *parallelHSJNNode) NextBatch(max int) (*Batch, error) {
	b, ok, err := n.receive(&n.base)
	if !ok {
		if v := n.final.Swap(nil); v != nil {
			n.surfaced = true
			return nil, *v
		}
		n.stats.Done = true
	}
	return b, err
}

func closeAll(nodes []Node) error {
	var first error
	for _, c := range nodes {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (n *parallelHSJNNode) Close() error {
	defer n.grant.release()
	if n.cancel == nil {
		return cmp.Or(closeAll(n.probeClones), closeAll(n.buildClones))
	}
	err := n.finish() // build workers already closed their clones; probe workers close theirs on exit
	if n.ch == nil {
		// Open failed during the build phase: the probe workers never
		// launched, so their clones are closed here.
		return closeAll(n.probeClones)
	}
	return err
}
