package executor

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/types"
)

// tableScanNode scans a heap and applies the residual filter.
type tableScanNode struct {
	base
	ex     *Executor
	heap   *storage.Table
	filter *expr.Filter
	it     *storage.TableIterator

	out      *Batch // reusable output batch
	rowTicks int64  // pre-scaled per-scanned-row charge
}

func (e *Executor) buildTableScan(p *optimizer.Plan) (Node, error) {
	if p.Table < 0 || p.Table >= len(e.tabs) {
		return nil, fmt.Errorf("executor: table index %d out of range", p.Table)
	}
	f, err := e.compileFilter(p.Filter, p.Cols)
	if err != nil {
		return nil, err
	}
	return &tableScanNode{
		base:   base{plan: p},
		ex:     e,
		heap:   e.tabs[p.Table].Heap,
		filter: f,
		out:    NewBatch(e.batchCap),
	}, nil
}

func (n *tableScanNode) Open() error {
	n.it = n.heap.Scan()
	n.stats = NodeStats{Opened: true}
	n.rowTicks = Ticks(n.ex.Cost.ScanRow + float64(n.filter.Len())*n.ex.Cost.PredEval)
	return nil
}

func (n *tableScanNode) Rewind() error {
	n.it.Reset()
	n.stats.Done = false
	return nil
}

// NextBatch scans rows into a reusable batch of heap-row references (heap
// rows are stable, so the batch is not ephemeral). Every scanned row — kept
// or filtered out — charges ScanRow plus its predicate evaluations, in a
// single meter operation per batch, and the scan stops at the max-th kept
// row.
func (n *tableScanNode) NextBatch(max int) (*Batch, error) {
	b := n.out
	b.Reset()
	max = b.room(max)
	scanned := 0
	for b.Len() < max {
		row, _, ok := n.it.Next()
		if !ok {
			n.stats.Done = true
			break
		}
		scanned++
		keep, err := n.filter.Test(row)
		if err != nil {
			n.chargeTicks(n.ex, n.rowTicks, scanned)
			return nil, err
		}
		if keep {
			b.Append(row)
		}
	}
	n.chargeTicks(n.ex, n.rowTicks, scanned)
	return n.emit(b, nil)
}

func (n *tableScanNode) Close() error { return nil }

// ridFetch is the fetch phase shared by the index access paths: Open has
// collected the qualifying rids, NextBatch fetches their rows and applies the
// residual filter.
type ridFetch struct {
	base
	ex     *Executor
	heap   *storage.Table
	filter *expr.Filter
	rids   []schema.RID
	pos    int

	out      *Batch // reusable output batch
	rowTicks int64  // pre-scaled per-fetched-row charge
}

func (e *Executor) newRidFetch(p *optimizer.Plan, heap *storage.Table) (ridFetch, error) {
	f, err := e.compileFilter(p.Filter, p.Cols)
	return ridFetch{
		base:     base{plan: p},
		ex:       e,
		heap:     heap,
		filter:   f,
		out:      NewBatch(e.batchCap),
		rowTicks: Ticks(e.Cost.FetchRow + float64(f.Len())*e.Cost.PredEval),
	}, err
}

// start resets the node for a fresh Open, keeping the rid buffer.
func (n *ridFetch) start() {
	n.stats = NodeStats{Opened: true}
	n.rids = n.rids[:0]
	n.pos = 0
}

func (n *ridFetch) Rewind() error {
	n.pos = 0
	n.stats.Done = false
	return nil
}

// NextBatch fetches qualifying rids into a reusable batch of stable heap
// rows, charging FetchRow plus the predicate evaluations per fetched row once
// per batch. A fetch error is surfaced after charging the rows fetched so
// far.
func (n *ridFetch) NextBatch(max int) (*Batch, error) {
	b := n.out
	b.Reset()
	max = b.room(max)
	fetched := 0
	for b.Len() < max && n.pos < len(n.rids) {
		rid := n.rids[n.pos]
		n.pos++
		row, err := n.heap.Get(rid)
		if err != nil {
			n.chargeTicks(n.ex, n.rowTicks, fetched)
			return nil, err
		}
		fetched++
		keep, err := n.filter.Test(row)
		if err != nil {
			n.chargeTicks(n.ex, n.rowTicks, fetched)
			return nil, err
		}
		if keep {
			b.Append(row)
		}
	}
	n.chargeTicks(n.ex, n.rowTicks, fetched)
	n.stats.Fetched += float64(fetched)
	n.stats.Done = b.Len() < max
	return n.emit(b, nil)
}

func (n *ridFetch) Close() error { return nil }

// indexScanNode performs a sargable B+tree range scan: it collects the
// qualifying rids in key order, fetches the rows and applies the residual
// filter. Bounds are constant expressions fixed at plan time.
type indexScanNode struct {
	ridFetch
	ix *storage.BTreeIndex
}

func (e *Executor) buildIndexScan(p *optimizer.Plan) (Node, error) {
	t := e.tabs[p.Table]
	ix := t.BTreeOn(p.IndexOrd)
	if ix == nil {
		return nil, fmt.Errorf("executor: no B+tree on %s ordinal %d", t.Name, p.IndexOrd)
	}
	rf, err := e.newRidFetch(p, ix.Table())
	if err != nil {
		return nil, err
	}
	return &indexScanNode{ridFetch: rf, ix: ix}, nil
}

func (n *indexScanNode) bound(e expr.Expr, inc bool) (storage.Bound, error) {
	if e == nil {
		return storage.Bound{}, nil
	}
	v, err := e.Eval(n.ex.ectx, nil)
	if err != nil {
		return storage.Bound{}, err
	}
	return storage.Bound{Value: &v, Inclusive: inc}, nil
}

func (n *indexScanNode) Open() error {
	n.start()
	p := n.plan
	lo, err := n.bound(p.IndexLo, p.IndexLoInc)
	if err != nil {
		return err
	}
	hi, err := n.bound(p.IndexHi, p.IndexHiInc)
	if err != nil {
		return err
	}
	n.charge(n.ex, float64(n.ix.Height())*n.ex.Cost.IndexLevel)
	n.ix.AscendRange(lo, hi, func(_ types.Datum, rid schema.RID) bool {
		n.rids = append(n.rids, rid)
		return true
	})
	return nil
}

// mvScanNode streams a temporary materialized view.
type mvScanNode struct {
	base
	ex  *Executor
	cur rowCursor
}

func (e *Executor) buildMVScan(p *optimizer.Plan) (Node, error) {
	if p.MV == nil {
		return nil, fmt.Errorf("executor: MVSCAN without a view")
	}
	return &mvScanNode{base: base{plan: p}, ex: e}, nil
}

func (n *mvScanNode) Open() error {
	n.stats = NodeStats{Opened: true}
	n.cur.open(n.ex, n.plan.MV.Rows)
	return nil
}

func (n *mvScanNode) Rewind() error { return n.cur.rewind(&n.stats) }

func (n *mvScanNode) NextBatch(max int) (*Batch, error) {
	return n.cur.next(&n.base, n.ex, max, n.ex.Cost.TempRead)
}

func (n *mvScanNode) Close() error { return nil }
