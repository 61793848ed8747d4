package executor

import (
	"maps"
	"math"

	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/types"
)

// CheckEventInfo builds the trace payload for a checkpoint event: the
// estimate the validity range was derived from, the observed cardinality,
// and the range itself (an unbounded upper limit becomes a nil RangeHi —
// JSON has no +Inf).
func CheckEventInfo(meta *optimizer.CheckMeta, actual float64, exact bool) *trace.CheckInfo {
	ci := &trace.CheckInfo{
		ID:      meta.ID,
		Flavor:  meta.Flavor.String(),
		Where:   meta.Where,
		Est:     meta.EstCard,
		Actual:  actual,
		Exact:   exact,
		RangeLo: meta.Range.Lo,
	}
	if !math.IsInf(meta.Range.Hi, 1) {
		ci.RangeHi = trace.Float(meta.Range.Hi)
	}
	return ci
}

// checkNode implements the CHECK operator of paper Figure 10 for check range
// [low, high]:
//
//	NEXT: count++; if count > high → re-optimize;
//	      if EOF and count < low → re-optimize.
//
// When its child is a materialization (SORT/TEMP/GRPBY), the check is
// evaluated once against the materialized count right after Open — the
// optimization the paper describes for checks above materialization points.
//
// A CHECK is never cloned: POP places it after parallelization, above any
// gather, and buildGather refuses a cloned subtree that holds one. So one
// instance sees the edge's whole stream, its count is the edge cardinality,
// and its end-of-stream is the edge's.
type checkNode struct {
	base
	ex        *Executor
	count     int64 // rows observed, across re-opens
	validated bool  // validated once at Open over a completed materialization; per-row checks off
	eof       bool  // end-of-stream already accounted

	crossed bool  // the upper bound was crossed by a batch whose rows below it are delivered first; sticky
	checkT  int64 // pre-scaled per-row CheckRow charge
}

func (e *Executor) buildCheck(p *optimizer.Plan) (Node, error) {
	child, err := e.Build(p.Children[0])
	if err != nil {
		return nil, err
	}
	return &checkNode{base: base{plan: p, children: []Node{child}}, ex: e}, nil
}

func (n *checkNode) violation(actual float64, exact bool) error {
	n.stats.Violated = true
	return &CheckViolation{
		Check:  n.plan.Check,
		Node:   n.plan,
		Actual: actual,
		Exact:  exact,
	}
}

// passed emits the exactly-once checkpoint_passed event. Both call sites sit
// behind an exactly-once guard (validated, or eof).
func (n *checkNode) passed(actual float64, exact bool) {
	if tr := n.ex.Trace; tr != nil {
		tr.Record(trace.Event{
			Kind:  trace.CheckpointPassed,
			Check: CheckEventInfo(n.plan.Check, actual, exact),
		})
	}
}

// touch records the statement's work level at which this check first and
// last validated rows.
func (n *checkNode) touch() {
	if !n.stats.Touched {
		n.stats.Touched = true
		n.stats.FirstWork = n.ex.Meter.Work()
	}
	n.stats.DoneWork = n.ex.Meter.Work()
}

func (n *checkNode) Open() error {
	n.stats = NodeStats{Opened: true}
	n.checkT = Ticks(n.ex.Cost.CheckRow)
	child := n.children[0]
	if err := child.Open(); err != nil {
		return err
	}
	// Lazy checks above materialization points validate once, against the
	// completed materialization's exact cardinality.
	if m, ok := child.(Materializer); ok && !n.validated {
		if rows, done := m.Materialized(); done {
			n.validated = true
			card := float64(len(rows))
			n.charge(n.ex, n.ex.Cost.CheckRow)
			n.touch()
			if !n.plan.Check.Range.Contains(card) {
				return n.violation(card, true)
			}
			n.passed(card, true)
		}
	}
	return nil
}

// NextBatch counts whole batches and raises an upper violation at the row
// whose count is the first above Hi, reporting that count. The pull size is
// clamped so the stream never runs past that row: the
// crossing batch holds the rows to emit plus the violating row, which is
// truncated from the delivered batch; the violation is returned at once when
// nothing is left to deliver and on the next pull otherwise, so the rows below
// the bound reach the consumer first. CheckRow is charged once per batch,
// pre-scaled.
func (n *checkNode) NextBatch(max int) (*Batch, error) {
	r := n.plan.Check.Range
	// Counts are integers, so the first count above a fractional Hi is
	// floor(Hi)+1; an unbounded Hi is never compared against it.
	crossing := int64(r.Hi) + 1
	if n.crossed {
		return nil, n.violation(float64(crossing), false)
	}
	lim := max
	if !n.validated && !math.IsInf(r.Hi, 1) {
		if rem := crossing - n.count; lim <= 0 || rem < int64(lim) {
			lim = 1
			if rem > 1 {
				lim = int(rem)
			}
		}
	}
	b, err := n.children[0].NextBatch(lim)
	if err != nil {
		return nil, err
	}
	if n.validated {
		if b == nil {
			n.stats.Done = true
			return nil, nil
		}
		return n.emit(b, nil)
	}
	if b == nil {
		n.stats.Done = true
		if !n.eof {
			n.eof = true
			// The lower bound needs the complete edge cardinality, known
			// only now; this evaluation carries the one end-of-stream
			// CheckRow charge.
			n.chargeTicks(n.ex, n.checkT, 1)
			n.touch()
			c := float64(n.count)
			if c < r.Lo {
				return nil, n.violation(c, true)
			}
			n.passed(c, true)
		}
		return nil, nil
	}
	k := b.Len()
	n.chargeTicks(n.ex, n.checkT, k)
	n.touch()
	prev := n.count
	n.count += int64(k)
	if float64(n.count) > r.Hi {
		// Eager detection: the actual cardinality is at least the count — a
		// lower bound that already proves the range violated. The pull was
		// clamped at the crossing row, so this batch holds it.
		b.Rows = b.Rows[:crossing-1-prev]
		n.crossed = true
		if b.Len() == 0 {
			return nil, n.violation(float64(crossing), false)
		}
	}
	return n.emit(b, nil)
}

func (n *checkNode) Close() error { return n.closeChildren() }

// RowDigest hashes a full row to a stable 64-bit identity. ECDC's deferred
// compensation uses it as the surrogate rid for derived rows (the paper
// constructs rids for rows derived from base tables).
func RowDigest(row schema.Row) uint64 {
	h := types.HashSeed
	for _, d := range row {
		h = d.HashFold(h)
	}
	return h
}

// ReturnedSet is the ECDC side table S: a multiset of the digests of rows
// already returned to the application during a prior partial execution.
type ReturnedSet struct {
	counts map[uint64]int
	total  int
}

// NewReturnedSet returns an empty side table.
func NewReturnedSet() *ReturnedSet {
	return &ReturnedSet{counts: make(map[uint64]int)}
}

// Add records one returned row.
func (s *ReturnedSet) Add(row schema.Row) {
	s.counts[RowDigest(row)]++
	s.total++
}

// Len returns the number of recorded rows.
func (s *ReturnedSet) Len() int { return s.total }

// Clone returns an independent copy of the set.
func (s *ReturnedSet) Clone() *ReturnedSet {
	return &ReturnedSet{counts: maps.Clone(s.counts), total: s.total}
}

// Remove consumes one occurrence of the row if present, reporting whether it
// was. The anti-join uses multiset semantics so duplicate result rows are
// compensated exactly once each.
func (s *ReturnedSet) Remove(row schema.Row) bool {
	d := RowDigest(row)
	if s.counts[d] > 0 {
		s.counts[d]--
		s.total--
		return true
	}
	return false
}

// insertRidNode is ECDC's INSERT operator: it records every row flowing to
// the application in the side table, transparently passing rows through.
type insertRidNode struct {
	base
	ex   *Executor
	side *ReturnedSet
}

// NewInsertRid wraps a node so every emitted row is recorded in side.
func NewInsertRid(ex *Executor, child Node, side *ReturnedSet) Node {
	p := child.Plan()
	return &insertRidNode{base: base{plan: p, children: []Node{child}}, ex: ex, side: side}
}

func (n *insertRidNode) Open() error {
	n.stats = NodeStats{Opened: true}
	return n.children[0].Open()
}

// NextBatch records and passes on exactly the rows it returns: a batch that
// exceeds max (an exchange below treats it as advisory) is cut to it first, so
// the side table never holds a row the application did not receive.
func (n *insertRidNode) NextBatch(max int) (*Batch, error) {
	b, err := n.children[0].NextBatch(max)
	if err != nil || b == nil {
		n.stats.Done = err == nil
		return nil, err
	}
	if max > 0 && b.Len() > max {
		b.Rows = b.Rows[:max]
	}
	n.chargeTicks(n.ex, Ticks(n.ex.Cost.TempWrite), b.Len())
	for _, row := range b.Rows {
		n.side.Add(row)
	}
	return n.emit(b, nil)
}

func (n *insertRidNode) Close() error { return n.closeChildren() }

// antiJoinNode compensates a re-optimized pipelined plan: rows found in the
// side table were already returned in the initial run and are suppressed
// (set-difference via NOT EXISTS on the rid side table, paper Figure 9).
type antiJoinNode struct {
	base
	ex   *Executor
	side *ReturnedSet
	left *ReturnedSet // this run's copy of side, consumed row by row
}

// NewAntiJoin wraps a node, suppressing rows present in side. side is only
// read: each run compensates against its own copy, taken at Open before any
// row flows, so a run abandoned part-way (its own CHECK fired) leaves side
// whole for the next attempt, and an INSERT above may record the run's own
// rows into side without the run compensating against them.
func NewAntiJoin(ex *Executor, child Node, side *ReturnedSet) Node {
	p := child.Plan()
	return &antiJoinNode{base: base{plan: p, children: []Node{child}}, ex: ex, side: side}
}

func (n *antiJoinNode) Open() error {
	n.stats = NodeStats{Opened: true}
	n.left = n.side.Clone()
	return n.children[0].Open()
}

// NextBatch probes the side table with every input row and compacts the
// survivors in place; an input batch that is suppressed entirely is skipped.
func (n *antiJoinNode) NextBatch(max int) (*Batch, error) {
	for {
		b, err := n.children[0].NextBatch(max)
		if err != nil || b == nil {
			n.stats.Done = err == nil
			return nil, err
		}
		n.chargeTicks(n.ex, Ticks(n.ex.Cost.HashProbeRow), b.Len())
		kept := 0
		for _, row := range b.Rows {
			if !n.left.Remove(row) { // else: already returned during the initial run
				b.Rows[kept] = row
				kept++
			}
		}
		if b.Rows = b.Rows[:kept]; kept > 0 {
			return n.emit(b, nil)
		}
	}
}

func (n *antiJoinNode) Close() error { return n.closeChildren() }
