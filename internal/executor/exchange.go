package executor

import (
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
// exchange ran inline on the caller's goroutine).
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
// now: less than asked clamps the DOP, and zero selects the inline fallback
// — dop 1 on the caller's goroutine with no spawned workers. The returned
// grant must be released exactly once by the owning node (poolleak checks
// this pairing).
func (e *Executor) acquireWorkers(want int) (dop int, grant workerGrant, inline bool) {
	if want < 1 {
		want = 1
	}
	if e.Gate == nil {
		return want, workerGrant{}, false
	}
	got := e.Gate.AcquireWorkers(want)
	grant = workerGrant{gate: e.Gate, n: got}
	if got < want {
		e.clampEvent(want, got)
	}
	if got < 1 {
		return 1, grant, true
	}
	return got, grant, false
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

// gatherNode runs DOP partition clones of its child concurrently and merges
// their output streams in arrival order. When the worker gate grants zero
// workers it degrades to an inline mode: one un-partitioned clone driven
// directly on the consumer's goroutine, charging exactly what a DOP-1
// gather charges but spawning nothing.
type gatherNode struct {
	base
	ex     *Executor
	dop    int
	clones []Node
	meters []*Meter
	grant  workerGrant
	inline bool

	ctx      context.Context
	cancel   context.CancelFunc
	ch       chan rowMsg
	wg       sync.WaitGroup
	stop     sync.Once
	opened   bool
	surfaced bool  // an error was already returned from Next
	drainErr error // first worker error discarded while draining on abort

	held   *Batch // last delivered transfer batch, recycled on the next pull
	exRowT int64  // pre-scaled per-row exchange charge
}

func (e *Executor) buildGather(p *optimizer.Plan) (Node, error) {
	dop, grant, inline := e.acquireWorkers(e.dopFor(p))
	if inline {
		// Zero grant: build one full-width clone charging the consumer's
		// meter directly — no worker copy, no goroutines. Work is identical
		// to a DOP-1 gather (which is identical to every other DOP).
		clone, err := e.Build(p.Children[0])
		if err != nil {
			grant.release()
			return nil, err
		}
		applyPartition(clone, 0, 1)
		return &gatherNode{
			base:   base{plan: p, children: []Node{clone}},
			ex:     e,
			dop:    1,
			clones: []Node{clone},
			grant:  grant,
			inline: true,
		}, nil
	}
	clones, meters, err := e.buildClones(p.Children[0], dop)
	if err != nil {
		grant.release()
		return nil, err
	}
	return &gatherNode{
		base:   base{plan: p, children: clones},
		ex:     e,
		dop:    dop,
		clones: clones,
		meters: meters,
		grant:  grant,
	}, nil
}

func (n *gatherNode) Open() error {
	n.stats = NodeStats{Opened: true}
	n.exRowT = Ticks(n.ex.Cost.ExchangeRow)
	n.held = nil
	n.charge(n.ex, n.ex.Cost.ExchangeSetup)
	if n.inline {
		n.opened = true
		return n.clones[0].Open()
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	n.ch = make(chan rowMsg, n.dop*exchangeBuffer)
	n.opened = true
	for i := range n.clones {
		n.wg.Add(1)
		go func(i int) {
			defer n.wg.Done()
			n.ex.workerEvent(trace.WorkerStart, "gather", i, n.dop, 0, 0)
			defer func() {
				work := n.meters[i].Work()
				n.meters[i].drain(n.ex.Meter)
				n.ex.workerEvent(trace.WorkerDrain, "gather", i, n.dop, n.clones[i].Stats().RowsOut, work)
			}()
			runPartition(n.ctx, n.ex, n.clones[i], n.ch)
		}(i)
	}
	go func() {
		n.wg.Wait()
		close(n.ch)
	}()
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

// NextBatch surfaces worker transfer batches in arrival order, charging
// ExchangeRow per logical row. max is advisory — a transfer batch arrives
// sized by its producing worker; an enclosing CHECK handles oversized
// batches through its crossing logic. The previously delivered batch is
// recycled to the pool, which is safe because the consumer's pull is the
// end of that batch's validity window.
func (n *gatherNode) NextBatch(max int) (*Batch, error) {
	if n.inline {
		// The clone's batch is returned directly: its validity window (until
		// the consumer's next pull) is exactly the edge's own, so no transfer
		// copy and no held recycling are needed.
		b, err := n.clones[0].NextBatch(max)
		if err != nil || b == nil {
			n.stats.Done = err == nil
			return nil, err
		}
		n.chargeTicks(n.ex, n.exRowT, b.Len())
		return n.emit(b, nil)
	}
	if n.held != nil {
		putBatch(n.held)
		n.held = nil
	}
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
		for msg := range n.ch {
			n.retainDrainErr(msg.err)
		}
	})
}

func (n *gatherNode) retainDrainErr(err error) {
	var cv *CheckViolation
	//poplint:allow chargeflow a drained violation is discarded as moot, not handled; surfaced violations are traced by the POP controller
	if err != nil && n.drainErr == nil && !errors.As(err, &cv) {
		n.drainErr = err
	}
}

func (n *gatherNode) Close() error {
	defer n.grant.release()
	if n.inline {
		return n.closeChildren() // the single inline clone
	}
	if !n.opened {
		return n.closeChildren()
	}
	n.abort() // workers close their own clones
	if n.held != nil {
		putBatch(n.held)
		n.held = nil
	}
	if n.surfaced {
		return nil // the error already reached the consumer via Next
	}
	return n.drainErr
}

// parallelHSJNNode is the partitioned hash join: DOP workers drain morsel
// stripes of the build input and route rows to hash partitions by key hash;
// DOP workers then build one hash table per partition; DOP probe workers
// stream morsel stripes of the probe input, each probing only the partition
// its row hashes to. Its Plan() is the underlying HSJN node, so stats
// harvesting and build-reuse promotion see the join, not the exchange.
type parallelHSJNNode struct {
	base
	ex     *Executor
	gplan  *optimizer.Plan // the GATHER above the join (exchange charges)
	dop    int
	grant  workerGrant
	inline bool

	probeKeys []int
	buildKeys []int
	join      joinOutput // the inline probe's; each probe worker copies it

	probeClones, buildClones []Node
	probeMeters, buildMeters []*Meter
	probeStub, buildStub     *exchangeStub

	parts      []joinTable // partition p holds the build rows whose key hash is p mod dop
	buildRows  []schema.Row
	buildDone  bool
	spillExtra float64

	// analyzeTicks accumulates the work this node's worker loops charge
	// (exchange routing, hash build/probe) in analyze mode. Worker loops run
	// concurrently, so attribution is batched per worker into an atomic and
	// folded into the node's stats at collection time via extraWork.
	analyzeTicks atomic.Int64

	ctx      context.Context
	cancel   context.CancelFunc
	ch       chan rowMsg
	wg       sync.WaitGroup
	stop     sync.Once
	opened   bool
	probes   bool // probe workers launched (ch live)
	surfaced bool // an error was already returned from Next
	drainErr error
	// final holds an end-of-stream lower-bound violation: it reaches the
	// consumer once every probe worker has exited, behind the rows the
	// siblings joined before it.
	final atomic.Pointer[error]

	held   *Batch // last delivered transfer batch, recycled on the next pull
	exRowT int64  // pre-scaled per-row exchange charge

	// Inline (zero-grant) mode state: the single-partition probe runs on the
	// consumer's goroutine, charging exactly the worker-loop amounts.
	probeT, outT  int64  // pre-scaled per-probe-row / per-output-row ticks
	inBatch       *Batch // current probe batch
	inRowIdx      int
	srcDone       bool
	inlineDrained bool // finishInlineProbe ran
}

func (e *Executor) buildParallelHSJN(gp, jp *optimizer.Plan) (Node, error) {
	dop, grant, inline := e.acquireWorkers(e.dopFor(gp))
	n := &parallelHSJNNode{base: base{plan: jp}, ex: e, gplan: gp, dop: dop, grant: grant, inline: inline}
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
		n.analyzeTicks.Add(t)
	}
}

// extraWork reports the analyze-mode work charged by this node's worker
// loops, which runs outside the consumer-thread charge path. CollectStats
// folds it into the node's Work column.
func (n *parallelHSJNNode) extraWork() float64 {
	return float64(n.analyzeTicks.Load()) / meterTick
}

// BuildMaterialized exposes the completed partitioned build for temp-MV
// promotion, exactly like the serial hash join.
func (n *parallelHSJNNode) BuildMaterialized() ([]schema.Row, int, bool) {
	return n.buildRows, 1, n.buildDone
}

func (n *parallelHSJNNode) Open() error {
	n.stats = NodeStats{Opened: true}
	pr := &n.ex.Cost
	n.exRowT = Ticks(pr.ExchangeRow)
	n.held = nil
	// One setup charge per exchange in the plan fragment: the gather plus
	// the two repartitions.
	n.charge(n.ex, 3*pr.ExchangeSetup)
	n.ctx, n.cancel = context.WithCancel(context.Background())
	n.opened = true
	n.buildStub.stats.Opened = true
	if n.inline {
		return n.openInline()
	}

	// Phase 1: partitioned build. Each worker drains its morsel stripe into
	// per-partition, per-worker buffers — no locks on the hot path.
	bufs := make([][][]schema.Row, n.dop)
	for p := range bufs {
		bufs[p] = make([][]schema.Row, n.dop)
	}
	all := make([][]schema.Row, n.dop)
	errs := make([]error, n.dop)
	var wg sync.WaitGroup
	for w := 0; w < n.dop; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n.ex.workerEvent(trace.WorkerStart, "build", w, n.dop, 0, 0)
			defer func() {
				work := n.buildMeters[w].Work()
				n.buildMeters[w].drain(n.ex.Meter)
				n.ex.workerEvent(trace.WorkerDrain, "build", w, n.dop, n.buildClones[w].Stats().RowsOut, work)
			}()
			errs[w] = n.runBuildWorker(w, bufs, &all[w])
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Retain the complete build input (worker order, so the retained rows
	// are deterministic for a given DOP) for temp-MV promotion.
	total := 0
	for w := range all {
		total += len(all[w])
	}
	n.buildRows = make([]schema.Row, 0, total)
	for w := range all {
		n.buildRows = append(n.buildRows, all[w]...)
	}
	n.buildDone = true
	n.buildStub.stats.RowsOut = float64(total)
	n.buildStub.stats.Done = true

	// Phase 2: one hash table per partition, built in parallel from the
	// workers' buffers in worker order.
	n.parts = make([]joinTable, n.dop)
	for p := 0; p < n.dop; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			n.parts[p].build(n.ex, n.buildKeys, bufs[p]...)
		}(p)
	}
	wg.Wait()
	n.spillExtra = n.stageBuild(n.ex, total)

	// Phase 3: concurrent probe.
	n.ch = make(chan rowMsg, n.dop*exchangeBuffer)
	n.probes = true
	n.probeStub.stats.Opened = true
	for w := 0; w < n.dop; w++ {
		n.wg.Add(1)
		go n.runProbeWorker(w)
	}
	go func() {
		n.wg.Wait()
		// Aggregate the probe edge's stats before the close signals the
		// consumer (channel close is the happens-before edge).
		rows := 0.0
		done := true
		for _, c := range n.probeClones {
			rows += c.Stats().RowsOut
			done = done && c.Stats().Done
		}
		n.probeStub.stats.RowsOut = rows
		n.probeStub.stats.Done = done
		close(n.ch)
	}()
	return nil
}

// openInline is the zero-grant Open: build and probe both run at dop 1 on
// the consumer's goroutine. The build reuses runBuildWorker synchronously
// (it closes its own clone and drains into the worker meter, which is
// drained here) without routing, the single partition table is built from
// the retained rows as the serial join builds its own, and the staging
// charge is the concurrent path's — so the simulated work total is
// bit-identical to every other DOP.
func (n *parallelHSJNNode) openInline() error {
	pr := &n.ex.Cost
	var all []schema.Row
	err := n.runBuildWorker(0, nil, &all)
	n.buildMeters[0].drain(n.ex.Meter)
	if err != nil {
		return err
	}
	n.buildRows = all
	n.buildDone = true
	n.buildStub.stats.RowsOut = float64(len(all))
	n.buildStub.stats.Done = true

	n.parts = make([]joinTable, 1)
	n.parts[0].build(n.ex, n.buildKeys, all)
	n.spillExtra = n.stageBuild(n.ex, len(all))

	n.probeT = Ticks(pr.ExchangeRow + pr.HashProbeRow + n.spillExtra)
	n.outT = Ticks(pr.OutputRow)
	n.probeStub.stats.Opened = true
	return n.probeClones[0].Open()
}

// chargeInline charges worker-loop ticks from the inline probe loop: the
// meter funding matches a probe worker's (statement meter via the consumer)
// and the analyze attribution matches the concurrent path's extraWork.
func (n *parallelHSJNNode) chargeInline(t int64) {
	n.ex.Meter.AddTicks(t)
	if n.ex.Analyze {
		n.addAnalyzeTicks(t)
	}
}

// finishInlineProbe drains the probe clone's worker meter into the
// statement meter and folds its stats into the probe stub, mirroring what
// the concurrent probe workers and their closer goroutine do. Idempotent:
// called at end of stream and again from Close.
func (n *parallelHSJNNode) finishInlineProbe() {
	if n.inlineDrained {
		return
	}
	n.inlineDrained = true
	n.probeMeters[0].drain(n.ex.Meter)
	n.probeStub.stats.RowsOut = n.probeClones[0].Stats().RowsOut
	n.probeStub.stats.Done = n.probeClones[0].Stats().Done
}

// inlineNextBatch is the inline probe loop: probe batches are pulled from the
// clone (probeT per pulled row), joined rows are carved into a pooled output
// batch (outT per emitted row), and each delivered batch charges ExchangeRow
// per row — the exact tick totals of runProbeWorker plus the consumer's
// NextBatch charge.
func (n *parallelHSJNNode) inlineNextBatch() (*Batch, error) {
	if n.held != nil {
		putBatch(n.held)
		n.held = nil
	}
	if err := n.takePending(); err != nil || n.srcDone {
		return nil, err
	}
	out := getBatch(n.ex.batchCap)
	emitted := 0
	charge := func() {
		if emitted > 0 {
			n.chargeInline(mulTicksSat(n.outT, int64(emitted)))
			emitted = 0
		}
	}
	deliver := func() *Batch {
		charge()
		n.chargeTicks(n.ex, n.exRowT, out.Len())
		n.stats.RowsOut += float64(out.Len())
		n.held = out
		return out
	}
	for {
		if n.inBatch == nil || n.inRowIdx >= n.inBatch.Len() {
			b, err := n.probeClones[0].NextBatch(0)
			if err != nil || b == nil {
				if err == nil {
					n.srcDone = true
					n.stats.Done = true
					n.finishInlineProbe()
				}
				if out.Len() == 0 {
					putBatch(out)
					return nil, err
				}
				n.pending = err // the rows joined before it reach the consumer first
				return deliver(), nil
			}
			n.chargeInline(mulTicksSat(n.probeT, int64(b.Len())))
			n.inBatch = b
			n.inRowIdx = 0
		}
		for n.inRowIdx < n.inBatch.Len() {
			row := n.inBatch.Rows[n.inRowIdx]
			n.inRowIdx++
			h, keyed := n.ex.keyHash(row, n.probeKeys, false)
			if !keyed {
				continue
			}
			for _, br := range n.parts[0].bucket(h) {
				if !keysEqual(row, n.probeKeys, br, n.buildKeys) {
					continue
				}
				kept, ferr := n.join.emit(out, row, br)
				if ferr != nil {
					charge()
					putBatch(out)
					return nil, ferr
				}
				if kept {
					emitted++
				}
			}
			if out.Len() >= n.ex.batchCap {
				return deliver(), nil
			}
		}
	}
}

// closeInline releases inline-mode resources: the probe clone (the build
// clone was closed by the synchronous runBuildWorker) and the held batch,
// then folds the probe stub stats for an early (LIMIT) stop.
func (n *parallelHSJNNode) closeInline() error {
	n.cancel()
	if n.held != nil {
		putBatch(n.held)
		n.held = nil
	}
	err := closeAll(n.probeClones)
	n.finishInlineProbe()
	return err
}

// runBuildWorker drains one build stripe, retaining rows and routing keyed
// rows into its buffers bufs[partition][w] (none when bufs is nil). On error
// it cancels sibling workers. Each batch's rows are retained (cloned when
// ephemeral) and then routed, with one meter operation per batch.
func (n *parallelHSJNNode) runBuildWorker(w int, bufs [][][]schema.Row, all *[]schema.Row) error {
	clone := n.buildClones[w]
	pr := &n.ex.Cost
	meter := n.buildMeters[w]
	rowT := Ticks(pr.ExchangeRow + pr.HashBuildRow)
	var awT int64 // loop ticks attributed to the join node in analyze mode
	defer func() { n.addAnalyzeTicks(awT) }()
	route := func(rows []schema.Row) {
		if bufs == nil {
			return
		}
		for _, row := range rows {
			if h, keyed := n.ex.keyHash(row, n.buildKeys, false); keyed {
				p := int(h % uint64(n.dop))
				bufs[p][w] = append(bufs[p][w], row)
			}
		}
	}
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
				awT += t
			}
			start := len(*all)
			*all = appendBatchRows(*all, b)
			route((*all)[start:])
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
	defer n.wg.Done()
	n.ex.workerEvent(trace.WorkerStart, "probe", w, n.dop, 0, 0)
	defer func() {
		work := n.probeMeters[w].Work()
		n.probeMeters[w].drain(n.ex.Meter)
		n.ex.workerEvent(trace.WorkerDrain, "probe", w, n.dop, n.probeClones[w].Stats().RowsOut, work)
	}()
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
			*awT += t
		}
		emitted := 0
		charge := func() {
			et := mulTicksSat(outT, int64(emitted))
			meter.AddTicks(et)
			if n.ex.Analyze {
				*awT += et
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

// NextBatch surfaces probe-worker transfer batches in arrival order,
// charging ExchangeRow per logical row, and then a held end-of-stream
// violation. max is advisory, exactly as for gatherNode.NextBatch; the
// previously delivered batch is recycled on the next pull.
func (n *parallelHSJNNode) NextBatch(max int) (*Batch, error) {
	if n.inline {
		return n.inlineNextBatch()
	}
	if n.held != nil {
		putBatch(n.held)
		n.held = nil
	}
	msg, ok := <-n.ch
	if !ok {
		if v := n.final.Swap(nil); v != nil {
			n.surfaced = true
			return nil, *v
		}
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

// abort mirrors gatherNode.abort, retaining the first genuine probe-worker
// error the drain would otherwise discard on an early (LIMIT) Close.
func (n *parallelHSJNNode) abort() {
	n.stop.Do(func() {
		n.cancel()
		if n.probes {
			for msg := range n.ch {
				n.retainDrainErr(msg.err)
			}
		}
	})
}

func (n *parallelHSJNNode) retainDrainErr(err error) {
	var cv *CheckViolation
	//poplint:allow chargeflow a drained violation is discarded as moot, not handled; surfaced violations are traced by the POP controller
	if err != nil && n.drainErr == nil && !errors.As(err, &cv) {
		n.drainErr = err
	}
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
	if !n.opened {
		if err := closeAll(n.probeClones); err != nil {
			closeAll(n.buildClones)
			return err
		}
		return closeAll(n.buildClones)
	}
	if n.inline {
		return n.closeInline()
	}
	n.abort() // build workers already closed their clones; probe workers close theirs on exit
	if n.held != nil {
		putBatch(n.held)
		n.held = nil
	}
	if !n.probes {
		// Open failed during the build phase: the probe workers never
		// launched, so their clones are closed here.
		return closeAll(n.probeClones)
	}
	if n.surfaced {
		return nil // the error already reached the consumer via Next
	}
	return n.drainErr
}
