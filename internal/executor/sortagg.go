package executor

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/types"
)

// sortNode fully materializes and sorts its input on Open — a
// materialization point in the paper's sense, and therefore a lazy-check
// anchor and a reusable intermediate result.
type sortNode struct {
	base
	ex   *Executor
	keys []int // key positions in the row
	desc []bool
	rows []schema.Row
	cur  rowCursor
	done bool // materialization completed
}

func (e *Executor) buildSort(p *optimizer.Plan) (Node, error) {
	child, err := e.Build(p.Children[0])
	if err != nil {
		return nil, err
	}
	n := &sortNode{base: base{plan: p, children: []Node{child}}, ex: e}
	cols := e.RowCols(p.Children[0])
	lay := layoutOf(cols)
	for _, k := range p.SortKeys {
		pos, err := lay.pos(cols, k.Col)
		if err != nil {
			return nil, err
		}
		n.keys = append(n.keys, pos)
		n.desc = append(n.desc, k.Desc)
	}
	return n, nil
}

// compareRows orders rows on the given key positions; NULLs sort first.
func compareRows(a, b schema.Row, keys []int, desc []bool) int {
	for i, k := range keys {
		av, bv := a[k], b[k]
		var c int
		switch {
		case av.IsNull() && bv.IsNull():
			c = 0
		case av.IsNull():
			c = -1
		case bv.IsNull():
			c = 1
		default:
			var err error
			c, err = av.Compare(bv)
			if err != nil {
				c = 0
			}
		}
		if desc != nil && desc[i] {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// rowCursor streams a node-owned buffer of stable rows (a materialization's
// output, a view) batch-at-a-time.
type rowCursor struct {
	rows []schema.Row
	pos  int
	out  *Batch
}

func (c *rowCursor) open(e *Executor, rows []schema.Row) {
	c.rows, c.pos = rows, 0
	if c.out == nil {
		c.out = NewBatch(e.batchCap)
	}
}

func (c *rowCursor) rewind(st *NodeStats) error {
	c.pos = 0
	st.Done = false
	return nil
}

// next emits the buffer's next at most max rows as node n's output, charging
// perRow work units for each.
func (c *rowCursor) next(n *base, e *Executor, max int, perRow float64) (*Batch, error) {
	b := c.out
	b.Reset()
	for max = b.room(max); b.Len() < max && c.pos < len(c.rows); c.pos++ {
		b.Append(c.rows[c.pos])
	}
	if perRow != 0 {
		n.chargeTicks(e, Ticks(perRow), b.Len())
	}
	n.stats.Done = b.Len() < max
	return n.emit(b, nil)
}

// drainMaterialize absorbs a materializing operator's entire input into
// dst, charging perRow work units for every row: each absorbed batch costs
// one meter operation and O(1) copy allocations.
func (b *base) drainMaterialize(e *Executor, child Node, dst []schema.Row, perRow float64) ([]schema.Row, error) {
	t := Ticks(perRow)
	for {
		nb, err := child.NextBatch(0)
		if err != nil || nb == nil {
			return dst, err
		}
		dst = appendBatchRows(dst, nb)
		b.chargeTicks(e, t, nb.Len())
	}
}

func (n *sortNode) Open() error {
	n.stats = NodeStats{Opened: true}
	n.rows = n.rows[:0]
	n.done = false
	child := n.children[0]
	if err := child.Open(); err != nil {
		return err
	}
	pr := &n.ex.Cost
	var err error
	n.rows, err = n.drainMaterialize(n.ex, child, n.rows, pr.TempWrite)
	if err != nil {
		return err
	}
	cn := float64(len(n.rows))
	n.charge(n.ex, cn*math.Log2(cn+2)*pr.SortCmpRow)
	sort.SliceStable(n.rows, func(i, j int) bool {
		return compareRows(n.rows[i], n.rows[j], n.keys, n.desc) < 0
	})
	n.cur.open(n.ex, n.rows)
	n.done = true
	return nil
}

func (n *sortNode) NextBatch(max int) (*Batch, error) {
	return n.cur.next(&n.base, n.ex, max, 0)
}

func (n *sortNode) Close() error { return n.closeChildren() }

// Materialized exposes the sorted buffer once materialization completed.
func (n *sortNode) Materialized() ([]schema.Row, bool) { return n.rows, n.done }

// tempNode materializes its input into a buffer on Open and streams it out —
// the TEMP operator, the other lazy-check anchor, and the buffer that
// implements BUFCHECK when placed over a CHECK (paper §5: "we implement
// BUFCHECK by placing a TEMP over a CHECK").
type tempNode struct {
	base
	ex   *Executor
	rows []schema.Row
	cur  rowCursor
	done bool
}

func (e *Executor) buildTemp(p *optimizer.Plan) (Node, error) {
	child, err := e.Build(p.Children[0])
	if err != nil {
		return nil, err
	}
	return &tempNode{base: base{plan: p, children: []Node{child}}, ex: e}, nil
}

func (n *tempNode) Open() error {
	n.stats = NodeStats{Opened: true}
	n.rows = n.rows[:0]
	n.done = false
	child := n.children[0]
	if err := child.Open(); err != nil {
		return err
	}
	var err error
	n.rows, err = n.drainMaterialize(n.ex, child, n.rows, n.ex.Cost.TempWrite)
	if err != nil {
		return err
	}
	n.cur.open(n.ex, n.rows)
	n.done = true
	return nil
}

func (n *tempNode) NextBatch(max int) (*Batch, error) {
	return n.cur.next(&n.base, n.ex, max, n.ex.Cost.TempRead)
}

func (n *tempNode) Close() error { return n.closeChildren() }

// Materialized exposes the buffer once materialization completed.
func (n *tempNode) Materialized() ([]schema.Row, bool) { return n.rows, n.done }

// aggState accumulates one aggregate function: v is the running MIN or MAX,
// or a plain item's first value.
type aggState struct {
	kind  logical.AggKind
	seen  bool
	count float64
	sum   float64
	v     types.Datum
}

// add folds one value in; every aggregate but a plain item skips NULLs. SUM
// and AVG of a value that is not a number is an error.
func (a *aggState) add(v types.Datum) error {
	switch {
	case a.kind == logical.AggNone:
		if !a.seen {
			a.v, a.seen = v, true
		}
	case v.IsNull():
	case a.kind == logical.AggCount:
		a.count++
	case a.kind == logical.AggSum || a.kind == logical.AggAvg:
		if !v.Kind().Numeric() {
			return fmt.Errorf("executor: %s of %s, not a number", a.kind, v.Kind())
		}
		a.count++
		a.sum += v.Float()
	case a.kind == logical.AggMin && (a.v.IsNull() || v.MustCompare(a.v) < 0),
		a.kind == logical.AggMax && (a.v.IsNull() || v.MustCompare(a.v) > 0):
		a.v = v
	}
	return nil
}

func (a *aggState) result() types.Datum {
	switch a.kind {
	case logical.AggCount:
		return types.NewInt(int64(a.count))
	case logical.AggSum:
		if a.count == 0 {
			return types.Null
		}
		return types.NewFloat(a.sum)
	case logical.AggAvg:
		if a.count == 0 {
			return types.Null
		}
		return types.NewFloat(a.sum / a.count)
	default:
		return a.v
	}
}

// A hash aggregation's arenas start with room for aggFirstGroups groups.
// When those are used they grow at once to the plan's group estimate with a
// quarter to spare, capped at aggPrealloc so a wildly overestimated plan
// cannot allocate unbounded memory, and double after that. The estimate
// sizes memory only, and a small aggregation never pays for an overestimate.
const (
	aggFirstGroups = 4
	aggPrealloc    = 1 << 12
)

// hashAggNode groups its input by the GroupBy keys and evaluates the select
// items per group: aggregates accumulate, plain items take the group's first
// row's value (they must be grouping columns for deterministic results).
// Group g is entry g of the hash table: its key datums are
// gkeys[g*len(keys):] and its states states[g*len(items):], stored by value
// in one arena each, so groups are numbered — and emitted — in
// first-encounter order, independent of hash values and batch boundaries.
type hashAggNode struct {
	base
	ex       *Executor
	keys     []int // positions of grouping columns in the child row
	items    []logical.SelectItem
	itemExpr []expr.Expr // remapped to child layout; nil for COUNT(*)
	groups   []schema.Row
	cur      rowCursor

	table  hashTable
	gkeys  []types.Datum
	states []aggState
}

func (e *Executor) buildHashAgg(p *optimizer.Plan) (Node, error) {
	child, err := e.Build(p.Children[0])
	if err != nil {
		return nil, err
	}
	n := &hashAggNode{base: base{plan: p, children: []Node{child}}, ex: e, items: p.Items}
	cols := e.RowCols(p.Children[0])
	lay := layoutOf(cols)
	for _, g := range p.GroupBy {
		pos, err := lay.pos(cols, g)
		if err != nil {
			return nil, err
		}
		n.keys = append(n.keys, pos)
	}
	for _, it := range p.Items {
		if it.E == nil {
			if it.Agg != logical.AggCount {
				return nil, fmt.Errorf("executor: aggregate %s requires an argument", it.Agg)
			}
			n.itemExpr = append(n.itemExpr, nil)
			continue
		}
		re, err := e.remap(it.E, cols)
		if err != nil {
			return nil, err
		}
		n.itemExpr = append(n.itemExpr, re)
	}
	return n, nil
}

// group returns the index of row's group, whose key hashes to h, adding the
// group if row is its first. Key datums are copied by value, so ephemeral
// batch rows are safe to group without cloning.
func (n *hashAggNode) group(row schema.Row, h uint64) int {
	nk := len(n.keys)
	pos := n.table.home(h)
	for g := n.table.next(h, &pos); g >= 0; g = n.table.next(h, &pos) {
		key, i := n.gkeys[g*nk:(g+1)*nk], 0
		for i < nk && key[i].Equal(row[n.keys[i]]) {
			i++
		}
		if i == nk {
			return g
		}
	}
	if g := len(n.table.hashes); g == cap(n.table.hashes) {
		room := aggFirstGroups
		if g > 0 {
			room = max(2*g, int(min(n.plan.Card*1.25, aggPrealloc)))
		}
		n.table.hashes = append(make([]uint64, 0, room), n.table.hashes...)
		n.gkeys = append(make([]types.Datum, 0, room*len(n.keys)), n.gkeys...)
		n.states = append(make([]aggState, 0, room*len(n.items)), n.states...)
	}
	for _, k := range n.keys {
		n.gkeys = append(n.gkeys, row[k])
	}
	for _, it := range n.items {
		n.states = append(n.states, aggState{kind: it.Agg})
	}
	return n.table.insert(h, pos)
}

// absorb folds one input row into its group's states. Open charges the
// rows absorbed so far, this one included, before it surfaces an error.
func (n *hashAggNode) absorb(row schema.Row) error {
	h, _ := n.ex.keyHash(row, n.keys, true)
	ni := len(n.items)
	g := n.group(row, h) * ni
	st := n.states[g : g+ni]
	for i := range st {
		v := types.NewInt(1) // COUNT(*)
		if ie := n.itemExpr[i]; ie != nil {
			var err error
			if v, err = ie.Eval(n.ex.ectx, row); err != nil {
				return err
			}
		}
		if err := st[i].add(v); err != nil {
			return err
		}
	}
	return nil
}

func (n *hashAggNode) Open() error {
	n.stats = NodeStats{Opened: true}
	n.groups = nil
	child := n.children[0]
	if err := child.Open(); err != nil {
		return err
	}
	pr := &n.ex.Cost
	n.table.reset(0)
	n.gkeys, n.states = nil, nil
	t := Ticks(pr.HashBuildRow)
	for {
		b, err := child.NextBatch(0)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for i, row := range b.Rows {
			if err := n.absorb(row); err != nil {
				n.chargeTicks(n.ex, t, i+1)
				return err
			}
		}
		n.chargeTicks(n.ex, t, b.Len())
	}
	// Degenerate aggregation without GROUP BY over empty input still yields
	// one group (COUNT(*) = 0).
	if len(n.table.hashes) == 0 && len(n.keys) == 0 {
		n.group(nil, types.HashSeed)
	}
	n.chargeTicks(n.ex, Ticks(pr.OutputRow), len(n.table.hashes))
	vals := make([]types.Datum, len(n.states))
	for i := range n.states {
		vals[i] = n.states[i].result()
	}
	ni := len(n.items)
	n.groups = make([]schema.Row, len(n.table.hashes))
	for g := range n.groups {
		n.groups[g] = vals[g*ni : (g+1)*ni : (g+1)*ni]
	}
	n.cur.open(n.ex, n.groups)
	return nil
}

// NextBatch streams the finalized groups, which are stable rows owned by
// the node, in first-encounter order. All charging happened at Open
// (HashBuildRow per input row, OutputRow per group).
func (n *hashAggNode) NextBatch(max int) (*Batch, error) {
	return n.cur.next(&n.base, n.ex, max, 0)
}

func (n *hashAggNode) Close() error { return n.closeChildren() }

// projectNode evaluates the select items per input row.
type projectNode struct {
	base
	ex    *Executor
	exprs []expr.Expr

	out      *Batch // reusable output batch
	outTicks int64  // pre-scaled per-output-row charge
}

func (e *Executor) buildProject(p *optimizer.Plan) (Node, error) {
	child, err := e.Build(p.Children[0])
	if err != nil {
		return nil, err
	}
	n := &projectNode{base: base{plan: p, children: []Node{child}}, ex: e, out: NewBatch(e.batchCap)}
	cols := e.RowCols(p.Children[0])
	for _, it := range p.Items {
		if it.E == nil {
			return nil, fmt.Errorf("executor: projection item without expression")
		}
		re, err := e.remap(it.E, cols)
		if err != nil {
			return nil, err
		}
		n.exprs = append(n.exprs, re)
	}
	return n, nil
}

func (n *projectNode) Open() error {
	n.stats = NodeStats{Opened: true}
	n.outTicks = Ticks(n.ex.Cost.OutputRow)
	return n.children[0].Open()
}

// NextBatch evaluates the select items over one input batch, carving output
// rows from the reusable batch slab — one charge and O(1) allocations per
// batch instead of one of each per row. An evaluation error is surfaced
// after charging the rows processed so far (including the failing one).
func (n *projectNode) NextBatch(max int) (*Batch, error) {
	in, err := n.children[0].NextBatch(max)
	if err != nil {
		return nil, err
	}
	if in == nil {
		n.stats.Done = true
		return nil, nil
	}
	b := n.out
	b.Reset()
	processed := 0
	for _, row := range in.Rows {
		processed++
		out := b.Alloc(len(n.exprs))
		for i, ex := range n.exprs {
			v, err := ex.Eval(n.ex.ectx, row)
			if err != nil {
				n.chargeTicks(n.ex, n.outTicks, processed)
				return nil, err
			}
			out[i] = v
		}
	}
	n.chargeTicks(n.ex, n.outTicks, processed)
	return n.emit(b, nil)
}

func (n *projectNode) Close() error { return n.closeChildren() }
