// Package executor interprets physical plans with Volcano-style
// open/next/close iterators that move rows a batch at a time (see Node and
// Batch). Every operator charges simulated work units
// using the same weights as the optimizer's cost model, so a plan's measured
// work equals its modeled cost evaluated at the *actual* cardinalities —
// which makes the paper's figures deterministic and machine-independent.
// pop.TestModelEqualsMeter asserts it operator by operator (StatsNode.Model
// against NodeStats.Work), so a charge site edited here needs its term in
// optimizer/cost.go.
//
// CHECK operators follow Figure 10 of the paper: they count the rows flowing
// from producer to consumer and raise a *CheckViolation when the count
// leaves the check range. The POP controller (package pop) catches the
// violation, harvests actual cardinalities and completed materializations,
// and re-invokes the optimizer.
package executor

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/types"
)

// meterTick is the fixed-point scale of the work meter: one work unit is
// 2^20 ticks. A power of two keeps every cost-model weight exactly
// representable after rounding once, so the quantization is the same no
// matter which worker performs a charge.
const meterTick = 1 << 20

// Meter accumulates simulated work units across a (possibly re-optimized,
// possibly parallel) statement execution. Work is held in integer ticks
// rather than a float64: integer addition is associative, so concurrent
// workers charging in any interleaving produce bit-identical totals — the
// determinism the paper's figures (and the cross-DOP acceptance tests)
// rely on.
type Meter struct {
	ticks atomic.Int64
}

// Ticks converts a work-unit amount into integer meter ticks, rounding once
// (k rows charged as perRowTicks*k equal k single-row Add calls, so a total
// does not depend on where batch boundaries fell) and saturating at MaxInt64
// for an amount int64 cannot hold, +Inf and NaN included.
func Ticks(w float64) int64 {
	if x := math.Round(w * meterTick); x < 1<<63 {
		return int64(x)
	}
	return math.MaxInt64
}

// Add charges work units.
func (m *Meter) Add(w float64) {
	m.AddTicks(Ticks(w))
}

// AddTicks charges pre-scaled integer ticks (see Ticks): one meter operation
// per batch, saturating at MaxInt64.
func (m *Meter) AddTicks(t int64) {
	if m != nil && t != 0 {
		addSat(&m.ticks, t)
	}
}

// Work returns the accumulated work units.
func (m *Meter) Work() float64 {
	if m == nil {
		return 0
	}
	return float64(m.ticks.Load()) / meterTick
}

// drain moves this meter's ticks into dst, saturating. Parallel workers
// charge a worker-local meter (no contention on the hot path) and drain it
// into the shared statement meter before exiting.
func (m *Meter) drain(dst *Meter) {
	addSat(&dst.ticks, m.ticks.Swap(0))
}

// NodeStats exposes an operator's runtime counters.
type NodeStats struct {
	RowsOut float64 // rows produced so far
	Done    bool    // reached end of stream
	Opened  bool

	// FirstWork and DoneWork record the statement-global meter reading when
	// the node first acted and when it finished (CHECK nodes maintain them;
	// the harness uses them to plot checkpoint opportunities as fractions of
	// execution, paper Figure 14).
	FirstWork float64
	DoneWork  float64
	Touched   bool // FirstWork recorded

	// Analyze-mode counters (Executor.Analyze): work units this node charged
	// and the wall-clock span between its first and last charge. Off by
	// default so the hot path stays branch-cheap and allocation-free.
	Work        float64
	WallFirstNS int64
	WallLastNS  int64

	// Fetched counts the heap rows an index access fetched by rid — what its
	// key matched, before the residual filter cut that down to RowsOut.
	Fetched float64

	// Spilled marks a hash join whose build exceeded the memory budget and
	// charged grace-hash staging; Violated marks a CHECK that raised the
	// violation that stopped this attempt.
	Spilled  bool
	Violated bool
}

// WallNS returns the node's active wall-clock span (analyze mode only).
func (s *NodeStats) WallNS() int64 {
	if s.WallFirstNS == 0 {
		return 0
	}
	return s.WallLastNS - s.WallFirstNS
}

// Node is an executable plan operator. Rows move between operators only
// through NextBatch.
type Node interface {
	Open() error
	// NextBatch returns the operator's next rows as one batch of at most max
	// rows (max <= 0: the producer's capacity), or nil at end of stream; an
	// empty non-nil batch is never returned. max is how a consumer that may
	// stop early — a CHECK about to cross its range, a LIMIT — keeps its
	// producers from running ahead: an operator asked for k rows pulls at
	// most k input rows at a time, which is exactly what k single-row pulls
	// would have consumed whenever an input row yields at most one output
	// row. Exchange consumers treat max as advisory: a transfer batch arrives
	// sized by its producing worker. An error that reaches an operator while
	// it holds output rows is delivered after them, on the next call.
	NextBatch(max int) (*Batch, error)
	Close() error
	Plan() *optimizer.Plan
	Stats() *NodeStats
	Children() []Node
}

// Rewinder is implemented by nodes that can restart their output stream
// without re-opening (the base accesses); the naive nested-loop join
// requires its inner to implement it.
type Rewinder interface {
	Rewind() error
}

// Materializer is implemented by nodes that buffer their entire input
// (SORT, TEMP). After materialization completes, the buffered rows can be
// promoted to a temporary materialized view for reuse (paper §2.3).
type Materializer interface {
	Materialized() ([]schema.Row, bool)
}

// CheckViolation is the error raised when a CHECK range is violated; it
// carries everything the re-optimization controller needs.
type CheckViolation struct {
	Check  *optimizer.CheckMeta
	Node   *optimizer.Plan // the CHECK plan node
	Actual float64         // observed cardinality when the check fired
	Exact  bool            // true if Actual is the complete edge cardinality
}

// Error implements the error interface.
func (v *CheckViolation) Error() string {
	kind := "lower bound"
	if v.Exact {
		kind = "exact"
	}
	return fmt.Sprintf("executor: CHECK #%d (%s) violated: actual cardinality %.0f (%s) outside range [%.1f, %.1f] (estimate %.1f)",
		v.Check.ID, v.Check.Flavor, v.Actual, kind, v.Check.Range.Lo, v.Check.Range.Hi, v.Check.EstCard)
}

// WorkerGate arbitrates the global worker pool between concurrent queries.
// AcquireWorkers asks for up to want additional workers and returns how many
// were granted (0..want) without blocking; every granted worker must be
// returned with exactly one ReleaseWorkers call (the poplint poolleak rule
// checks the pairing). A zero grant runs the exchange at DOP 1: its one
// worker takes nothing from the pool, standing in for the consumer's
// goroutine, which only waits on the channel; the simulated work is the
// same as at every other width. A nil gate grants every request in full,
// preserving the library's historical spawn-freely behavior.
type WorkerGate interface {
	// AcquireWorkers requests up to want workers, returning the grant.
	AcquireWorkers(want int) int
	// ReleaseWorkers returns previously granted workers to the pool.
	ReleaseWorkers(n int)
}

// workerGrant records an acquisition from a WorkerGate so the owning node can
// release it exactly once on every exit path.
type workerGrant struct {
	gate WorkerGate
	n    int
}

// release returns the grant to the gate. Safe to call more than once and on
// the zero value: the first call zeroes the count.
func (g *workerGrant) release() {
	if g.gate != nil && g.n > 0 {
		g.gate.ReleaseWorkers(g.n)
		g.n = 0
	}
}

// Executor builds executable trees for one query.
type Executor struct {
	Cat    *catalog.Catalog
	Q      *logical.Query
	Cost   optimizer.CostParams
	Meter  *Meter
	Params []types.Datum

	// DOP overrides the DOP recorded in exchange plan nodes at execution
	// time (0 = use the plan's). Work charges are DOP-independent, so the
	// parallel benchmarks use this to run one plan shape at several worker
	// counts.
	DOP int

	// Analyze turns on per-node runtime attribution (NodeStats.Work and the
	// wall-clock span) for EXPLAIN ANALYZE. Off, the only cost is one
	// predictable branch per charge — no allocations, no time syscalls, and
	// a bit-identical work total.
	Analyze bool

	// Trace receives structured runtime events (checkpoint outcomes,
	// exchange worker lifecycles) when non-nil. Emission sites are guarded
	// by a nil check, so the disabled path constructs no events.
	Trace trace.Recorder

	// Gate, when non-nil, arbitrates exchange worker spawning against a
	// global pool: each exchange asks for its plan DOP and runs at whatever
	// width is granted, DOP 1 at a zero grant. Simulated work is
	// bit-identical at every granted width; only wall-clock parallelism
	// changes. Nil preserves ungated spawning.
	Gate WorkerGate

	batchCap int             // rows per batch; batchRows outside the package's own tests
	wrap     func(Node) Node // applied to every node Build returns; set only by the package's own tests
	hashDrop uint64          // key-hash bits cleared to force collisions; set only by the package's own tests
	tabs     []*catalog.Table
	ectx     *expr.Context
	layouts  *layouts // join row layouts, shared with worker copies
}

// NewExecutor resolves the query's tables and prepares an executor.
func NewExecutor(cat *catalog.Catalog, q *logical.Query, params []types.Datum, cost optimizer.CostParams, meter *Meter) (*Executor, error) {
	tabs := make([]*catalog.Table, len(q.Tables))
	for i, tr := range q.Tables {
		t, err := cat.Table(tr.Table)
		if err != nil {
			return nil, err
		}
		tabs[i] = t
	}
	if meter == nil {
		meter = &Meter{}
	}
	return &Executor{
		Cat:      cat,
		Q:        q,
		Cost:     cost,
		Meter:    meter,
		Params:   params,
		batchCap: batchRows,
		tabs:     tabs,
		ectx:     &expr.Context{Params: params},
		layouts:  &layouts{},
	}, nil
}

// workerCopy returns a shallow copy of the executor whose charges go to the
// given worker-local meter. The copy shares the catalog, the expression
// context (read-only at execution time) and the join row layouts.
func (e *Executor) workerCopy(m *Meter) *Executor {
	we := *e
	we.Meter = m
	return &we
}

// dopFor resolves the execution DOP for an exchange plan node, honoring the
// executor-level override.
func (e *Executor) dopFor(p *optimizer.Plan) int {
	d := p.DOP
	if e.DOP > 0 {
		d = e.DOP
	}
	if d < 1 {
		d = 1
	}
	return d
}

// layout maps query-global column ids to their positions in an operator's
// output rows. Operators build one per input at construction time, so
// resolving a column reference is one map lookup instead of a linear scan of
// the layout per row.
type layout map[int]int

// layoutOf indexes a column layout. The first occurrence wins when an id
// appears twice (matching the old linear scan's behavior).
func layoutOf(cols []int) layout {
	l := make(layout, len(cols))
	for i, c := range cols {
		if _, ok := l[c]; !ok {
			l[c] = i
		}
	}
	return l
}

// pos returns the position of global id g, with cols used for the error
// message only.
func (l layout) pos(cols []int, g int) (int, error) {
	if i, ok := l[g]; ok {
		return i, nil
	}
	return -1, fmt.Errorf("executor: column id %d not present in layout %v", g, cols)
}

// remap rewrites an expression's query-global column ids into positions in
// the given output column layout.
func (e *Executor) remap(ex expr.Expr, cols []int) (expr.Expr, error) {
	if ex == nil {
		return nil, nil
	}
	l := layoutOf(cols)
	var missing error
	out := expr.Remap(ex, func(g int) int {
		if i, ok := l[g]; ok {
			return i
		}
		if missing == nil {
			missing = fmt.Errorf("executor: column id %d not present in layout %v", g, cols)
		}
		return -1
	})
	return out, missing
}

// RowCols returns the layout of the rows p's executable form emits: their
// query-global column ids, in row order. Base-table accesses, PROJECT and
// GRPBY emit p.Cols. A join emits only the columns of p.Cols still live above
// its table set (see liveReach). CHECK, TEMP, SORT and exchanges pass their
// child's layout through, and an MVSCAN emits the layout its view was
// materialized in. p.Cols of a non-leaf node stays the optimizer's logical
// column list; everything that resolves a row position reads this instead.
func (e *Executor) RowCols(p *optimizer.Plan) []int {
	switch p.Op {
	case optimizer.OpNLJN, optimizer.OpHSJN, optimizer.OpMGJN:
		return e.joinCols(p)
	case optimizer.OpCheck, optimizer.OpTemp, optimizer.OpSort, optimizer.OpExchange:
		return e.RowCols(p.Children[0])
	case optimizer.OpMVScan:
		if p.MV.RowCols != nil {
			return p.MV.RowCols
		}
		return p.Cols
	default:
		return p.Cols
	}
}

// layouts memoizes the join layouts of one statement execution. Worker
// copies of the executor share it; it is written only while a tree is built,
// on the building goroutine.
type layouts struct {
	reach []uint64 // liveReach of the query, computed on the first join
	joins map[*optimizer.Plan][]int
}

// joinCols is a join's output layout: the columns of p.Cols live above its
// table set, computed once per plan node.
func (e *Executor) joinCols(p *optimizer.Plan) []int {
	l := e.layouts
	if cols, ok := l.joins[p]; ok {
		return cols
	}
	if l.joins == nil {
		l.reach = liveReach(e.Q)
		l.joins = make(map[*optimizer.Plan][]int)
	}
	t := p.Tables()
	cols := make([]int, 0, len(p.Cols))
	for _, c := range p.Cols {
		if c >= len(l.reach) || l.reach[c]&^t != 0 {
			cols = append(cols, c)
		}
	}
	l.joins[p] = cols
	return cols
}

// liveReach returns, per query-global column id, the union of the table sets
// of the WHERE conjuncts that read the column, or every table when a select
// item or a GROUP BY key reads it. A column is live above table set T exactly
// when its reach has a table outside T: every conjunct over tables inside T is
// applied at or below the node that completes T, so only a reader reaching
// outside T can still need the column above it. The layout of T's rows
// therefore depends on the query and T alone — cold, re-optimized and cached
// plans all lay out T identically, and a temp MV of T fits every plan that
// reads it.
func liveReach(q *logical.Query) []uint64 {
	reach := make([]uint64, q.NumColumns())
	mark := func(e expr.Expr, tables uint64) {
		expr.Walk(e, func(n expr.Expr) {
			if c, ok := n.(*expr.ColRef); ok && c.Pos < len(reach) {
				reach[c.Pos] |= tables
			}
		})
	}
	for _, w := range q.Where {
		mark(w, q.TablesUsed(w))
	}
	for _, it := range q.Select {
		mark(it.E, ^uint64(0))
	}
	for _, g := range q.GroupBy {
		mark(g, ^uint64(0))
	}
	return reach
}

func (e *Executor) build(p *optimizer.Plan) (Node, error) {
	switch p.Op {
	case optimizer.OpTableScan:
		return e.buildTableScan(p)
	case optimizer.OpIndexScan:
		return e.buildIndexScan(p)
	case optimizer.OpMVScan:
		return e.buildMVScan(p)
	case optimizer.OpNLJN:
		return e.buildNLJN(p)
	case optimizer.OpHSJN:
		return e.buildHSJN(p)
	case optimizer.OpMGJN:
		return e.buildMGJN(p)
	case optimizer.OpSort:
		return e.buildSort(p)
	case optimizer.OpTemp:
		return e.buildTemp(p)
	case optimizer.OpHashAgg:
		return e.buildHashAgg(p)
	case optimizer.OpProject:
		return e.buildProject(p)
	case optimizer.OpCheck:
		return e.buildCheck(p)
	case optimizer.OpExchange:
		return e.buildGather(p)
	default:
		return nil, fmt.Errorf("executor: unsupported operator %s", p.Op)
	}
}

// runPrealloc caps the cardinality-based preallocation of Run's output
// slice, so a wildly overestimated plan cannot allocate unbounded memory up
// front.
const runPrealloc = 1 << 16

// Run drains a node to completion, honoring the plan's LIMIT: the root is
// never asked for more rows than the limit still allows. The output
// slice is preallocated from the plan's cardinality estimate, and a Close
// error is surfaced (alongside any rows drained so far) instead of being
// dropped.
func Run(n Node) (rows []schema.Row, err error) {
	if err := n.Open(); err != nil {
		if cerr := n.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	defer func() {
		if cerr := n.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	limit := n.Plan().Limit
	est := int(n.Plan().Card)
	if limit > 0 && limit < est {
		est = limit
	}
	if est < 0 {
		est = 0
	}
	if est > runPrealloc {
		est = runPrealloc
	}
	rows = make([]schema.Row, 0, est)
	for {
		// Without a LIMIT the argument is <= 0: the producer's capacity.
		b, berr := n.NextBatch(limit - len(rows))
		if berr != nil {
			return rows, berr
		}
		if b == nil {
			return rows, nil
		}
		rows = appendBatchRows(rows, b)
		if limit > 0 && len(rows) >= limit {
			return rows[:limit], nil
		}
	}
}

// Walk visits every node of an executable tree in pre-order.
func Walk(n Node, fn func(Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children() {
		Walk(c, fn)
	}
}

// base provides the shared bookkeeping for operators.
type base struct {
	plan     *optimizer.Plan
	stats    NodeStats
	children []Node
	pending  error // arrived while output rows were being produced; see emit
}

func (b *base) Plan() *optimizer.Plan { return b.plan }
func (b *base) Stats() *NodeStats     { return &b.stats }
func (b *base) Children() []Node      { return b.children }

// charge adds work to the executor's meter and, in analyze mode, attributes
// it to this node's stats together with the wall-clock span of the node's
// activity. Each node instance is driven by exactly one goroutine (partition
// clones are distinct instances), so the attribution needs no atomics.
func (b *base) charge(e *Executor, w float64) {
	b.chargeTicks(e, Ticks(w), 1)
}

// chargeTicks charges k logical rows of perRow pre-scaled ticks in one
// meter operation; every charge funds the meter and the analyze attribution
// through it. Attributing the quantized tick value (not the raw float) makes
// per-node Work exact and independent of batch boundaries: every attributed
// amount is a multiple of 2^-20, so float64 accumulation is lossless at the
// work magnitudes the engine produces.
func (b *base) chargeTicks(e *Executor, perRow int64, k int) {
	if k <= 0 {
		return
	}
	t := mulTicksSat(perRow, int64(k))
	e.Meter.AddTicks(t)
	if e.Analyze {
		b.stats.Work += float64(t) / meterTick
		now := time.Now().UnixNano() //poplint:allow determinism analyze-mode wall spans are diagnostic; simulated work stays bit-identical
		if b.stats.WallFirstNS == 0 {
			b.stats.WallFirstNS = now
		}
		b.stats.WallLastNS = now
	}
}

// mulTicksSat multiplies a per-row tick rate by a row count, saturating at
// MaxInt64 instead of wrapping. Tick rates and counts are non-negative in
// every caller (Ticks quantizes non-negative cost weights; counts are batch
// lengths), so saturation only engages at astronomically large products —
// where a pinned meter is correct and a silently negative one would corrupt
// every downstream guard comparison. Non-positive operands charge nothing.
// It holds the executor's one int64 product: poplint's overflow rule
// reports any other.
func mulTicksSat(perRow, k int64) int64 {
	if perRow <= 0 || k <= 0 {
		return 0
	}
	if perRow > math.MaxInt64/k {
		return math.MaxInt64
	}
	return perRow * k
}

// addTicksSat adds two non-negative tick counts, saturating at MaxInt64.
func addTicksSat(a, b int64) int64 {
	if s := a + b; s >= 0 {
		return s
	}
	return math.MaxInt64
}

// addSat adds a non-negative tick count to c, pinning it at MaxInt64 when
// the sum wraps: every charge is non-negative, so a negative result can only
// mean the counter passed MaxInt64.
func addSat(c *atomic.Int64, t int64) {
	if c.Add(t) < 0 {
		c.Store(math.MaxInt64)
	}
}

// takePending returns, once, the error emit held back on the previous call.
func (b *base) takePending() error {
	err := b.pending
	b.pending = nil
	return err
}

// emit ends a NextBatch call that filled out and may have been stopped by err
// from an input: the rows produced before the error flow upward first, and the
// error surfaces on the next call (through takePending) — the order in which a
// consumer pulling one row at a time would have seen them, so a violation
// finds every operator above it as far along as the rows below it got.
func (b *base) emit(out *Batch, err error) (*Batch, error) {
	k := out.Len()
	if k == 0 {
		return nil, err
	}
	b.pending = err
	b.stats.RowsOut += float64(k)
	return out, nil
}

func (b *base) closeChildren() error {
	var first error
	for _, c := range b.children {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Build constructs the executable tree for a plan.
func (e *Executor) Build(p *optimizer.Plan) (Node, error) {
	n, err := e.build(p)
	if err != nil || e.wrap == nil {
		return n, err
	}
	return e.wrap(n), nil
}

// compileFilter remaps a plan filter to the row layout cols and compiles it
// against this execution's parameter bindings.
func (e *Executor) compileFilter(f expr.Expr, cols []int) (*expr.Filter, error) {
	re, err := e.remap(f, cols)
	return expr.Compile(re, e.ectx), err
}
