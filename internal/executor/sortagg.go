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
// output, a view) batch-at-a-time, optionally over one morsel stripe.
type rowCursor struct {
	rows             []schema.Row
	pos, start, step int
	out              *Batch
}

func (c *rowCursor) open(e *Executor, rows []schema.Row, s stripe) {
	c.rows, c.start, c.step = rows, s.part, s.step()
	c.pos = c.start
	if c.out == nil {
		c.out = NewBatch(e.batchCap)
	}
}

func (c *rowCursor) rewind(st *NodeStats) error {
	c.pos = c.start
	st.Done = false
	return nil
}

// next emits the buffer's next at most max rows as node n's output, charging
// perRow work units for each.
func (c *rowCursor) next(n *base, e *Executor, max int, perRow float64) (*Batch, error) {
	b := c.out
	b.Reset()
	for max = b.room(max); b.Len() < max && c.pos < len(c.rows); c.pos += c.step {
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
	n.cur.open(n.ex, n.rows, stripe{})
	n.done = true
	return nil
}

func (n *sortNode) Rewind() error { return n.cur.rewind(&n.stats) }

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
	n.cur.open(n.ex, n.rows, stripe{})
	n.done = true
	return nil
}

func (n *tempNode) Rewind() error { return n.cur.rewind(&n.stats) }

func (n *tempNode) NextBatch(max int) (*Batch, error) {
	return n.cur.next(&n.base, n.ex, max, n.ex.Cost.TempRead)
}

func (n *tempNode) Close() error { return n.closeChildren() }

// Materialized exposes the buffer once materialization completed.
func (n *tempNode) Materialized() ([]schema.Row, bool) { return n.rows, n.done }

// aggState accumulates one aggregate function.
type aggState struct {
	kind  logical.AggKind
	count float64
	sum   float64
	min   types.Datum
	max   types.Datum
	first types.Datum // representative value for plain items
	seen  bool
}

func (a *aggState) add(v types.Datum) {
	if !a.seen {
		a.first = v
		a.seen = true
	}
	if a.kind == logical.AggCount {
		if !v.IsNull() {
			a.count++
		}
		return
	}
	if v.IsNull() {
		return
	}
	switch a.kind {
	case logical.AggSum, logical.AggAvg:
		a.count++
		a.sum += v.Float()
	case logical.AggMin:
		if a.min.IsNull() || v.MustCompare(a.min) < 0 {
			a.min = v
		}
	case logical.AggMax:
		if a.max.IsNull() || v.MustCompare(a.max) > 0 {
			a.max = v
		}
	default:
		// AggCount returned above; AggNone only needs the representative
		// value captured by the seen check.
	}
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
	case logical.AggMin:
		return a.min
	case logical.AggMax:
		return a.max
	default:
		return a.first
	}
}

// hashAggNode groups its input by the GroupBy keys and evaluates the select
// items per group: aggregates accumulate, plain items take the group's first
// row's value (they must be grouping columns for deterministic results).
type hashAggNode struct {
	base
	ex       *Executor
	keys     []int // positions of grouping columns in the child row
	items    []logical.SelectItem
	itemExpr []expr.Expr // remapped to child layout; nil for COUNT(*)
	groups   []schema.Row
	cur      rowCursor
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

// aggGroup is one grouping key's accumulator set.
type aggGroup struct {
	key    schema.Row
	states []*aggState
}

// aggBuilder holds the grouping hash table while an aggregation drains its
// input; emission order is first-encounter order, independent of hash
// values and batch boundaries.
type aggBuilder struct {
	n     *hashAggNode
	table map[uint64][]*aggGroup
	order []*aggGroup
}

// absorb folds one input row into its group. The row is only read — key
// datums are copied into the group key — so ephemeral batch rows are safe
// to absorb without cloning.
func (a *aggBuilder) absorb(row schema.Row) error {
	n := a.n
	hv := types.HashSeed
	for _, k := range n.keys {
		hv = row[k].HashFold(hv)
	}
	var g *aggGroup
	for _, cand := range a.table[hv] {
		match := true
		for i, k := range n.keys {
			if !cand.key[i].Equal(row[k]) {
				match = false
				break
			}
		}
		if match {
			g = cand
			break
		}
	}
	if g == nil {
		key := make(schema.Row, len(n.keys))
		for i, k := range n.keys {
			key[i] = row[k]
		}
		g = &aggGroup{key: key, states: make([]*aggState, len(n.items))}
		for i, it := range n.items {
			g.states[i] = &aggState{kind: it.Agg}
		}
		a.table[hv] = append(a.table[hv], g)
		a.order = append(a.order, g)
	}
	for i, st := range g.states {
		var v types.Datum
		if n.itemExpr[i] == nil {
			v = types.NewInt(1) // COUNT(*)
		} else {
			var err error
			v, err = n.itemExpr[i].Eval(n.ex.ectx, row)
			if err != nil {
				return err
			}
		}
		st.add(v)
	}
	return nil
}

func (n *hashAggNode) Open() error {
	n.stats = NodeStats{Opened: true}
	n.groups = n.groups[:0]
	child := n.children[0]
	if err := child.Open(); err != nil {
		return err
	}
	pr := &n.ex.Cost
	a := &aggBuilder{n: n, table: make(map[uint64][]*aggGroup)}
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
			if err := a.absorb(row); err != nil {
				n.chargeTicks(n.ex, t, i+1)
				return err
			}
		}
		n.chargeTicks(n.ex, t, b.Len())
	}
	// Degenerate aggregation without GROUP BY over empty input still yields
	// one group (COUNT(*) = 0).
	if len(a.order) == 0 && len(n.keys) == 0 {
		g := &aggGroup{states: make([]*aggState, len(n.items))}
		for i, it := range n.items {
			g.states[i] = &aggState{kind: it.Agg}
		}
		a.order = append(a.order, g)
	}
	for _, g := range a.order {
		n.charge(n.ex, pr.OutputRow)
		out := make(schema.Row, len(n.items))
		for i, st := range g.states {
			out[i] = st.result()
		}
		n.groups = append(n.groups, out)
	}
	n.cur.open(n.ex, n.groups, stripe{})
	return nil
}

// NextBatch streams the finalized groups, which are stable rows owned by
// the node, in first-encounter order. All charging happened at Open
// (HashBuildRow per input row, OutputRow per group).
func (n *hashAggNode) NextBatch(max int) (*Batch, error) {
	return n.cur.next(&n.base, n.ex, max, 0)
}

func (n *hashAggNode) Rewind() error { return n.cur.rewind(&n.stats) }

func (n *hashAggNode) Close() error { return n.closeChildren() }

// Materialized exposes the group buffer; aggregation is a materialization.
func (n *hashAggNode) Materialized() ([]schema.Row, bool) {
	return n.groups, n.stats.Opened
}

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
