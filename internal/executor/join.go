package executor

import (
	"fmt"
	"sync"

	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/types"
)

// joinOutput is what every join does with an input pair: it tests the
// residual filter and carves the output row of an accepted pair. The output
// row carries only the join's layout (Executor.RowCols), picked from the two
// input rows; nothing dead above the join is copied. The filter may read a
// column that is dead above the join, so it is remapped to the pair layout —
// the left row followed by the right — and tested on the two input rows in
// place (Filter.TestPair). Only a conjunct that did not compile to a
// comparison needs the pair copied into one row, in pair.
type joinOutput struct {
	filter      *expr.Filter
	left, right []int      // positions of the output columns in the left / right row
	pair        schema.Row // filter scratch
}

// newJoinOutput resolves join p's output positions and remaps its filter,
// given the layouts of its left and right input rows. A join's Cols are its
// left input's followed by its right's, so its output columns taken from the
// left row all precede those taken from the right.
func (e *Executor) newJoinOutput(p *optimizer.Plan, leftCols, rightCols []int) (joinOutput, error) {
	pairCols := append(append(make([]int, 0, len(leftCols)+len(rightCols)), leftCols...), rightCols...)
	filter, err := e.compileFilter(p.Filter, pairCols)
	if err != nil {
		return joinOutput{}, err
	}
	o := joinOutput{filter: filter}
	lay := layoutOf(pairCols)
	for _, c := range e.RowCols(p) {
		i, err := lay.pos(pairCols, c)
		if err != nil {
			return joinOutput{}, err
		}
		if i < len(leftCols) {
			o.left = append(o.left, i)
		} else {
			o.right = append(o.right, i-len(leftCols))
		}
	}
	return o, nil
}

// emit carves the output row of the pair (l, r) into b unless the filter
// rejects the pair, and reports whether it carved one.
func (o *joinOutput) emit(b *Batch, l, r schema.Row) (bool, error) {
	if keep, err := o.filter.TestPair(l, r, &o.pair); err != nil || !keep {
		return false, err
	}
	out := b.Alloc(len(o.left) + len(o.right))
	for i, k := range o.left {
		out[i] = l[k]
	}
	out = out[len(o.left):]
	for i, k := range o.right {
		out[i] = r[k]
	}
	return true, nil
}

// nljnNode implements both naive and index nested-loop joins. The naive
// variant rewinds its inner child once per outer row; the index variant
// probes a B+tree on the inner table with a key taken from the outer row.
type nljnNode struct {
	base
	ex    *Executor
	outer cursor
	inner cursor // naive variant only
	join  joinOutput
	out   *Batch // reusable output batch
	outT  int64  // pre-scaled per-output-row charge
	evalT int64  // pre-scaled per-pair predicate charge (naive variant)

	// Index variant.
	probe    *probeState
	outerKey int // position of the lookup key in the outer row

	haveOut bool
	// outerRow is the current outer row. The outer is pulled one row at a
	// time, so the row stays valid until the next outer row is taken.
	outerRow schema.Row
	// matches[mpos:] are the inner rows of the current outer row that passed
	// the inner filter and are still to be joined (index variant); heap rows,
	// so stable.
	matches []schema.Row
	mpos    int
}

// probeState tracks the index-probe machinery of an index NLJN and doubles
// as the Node for the inner edge so tree walks (stats harvesting, check
// collection) see both children. As a Node it is never driven: the NLJN
// probes the index itself.
type probeState struct {
	base
	ix       *storage.BTreeIndex
	filter   *expr.Filter // inner residual filter in table layout
	descentT int64        // pre-scaled B+tree descent charge per outer row
	fetchT   int64        // pre-scaled charge per fetched inner row
}

func (p *probeState) Open() error                   { p.stats.Opened = true; return nil }
func (p *probeState) NextBatch(int) (*Batch, error) { return nil, nil }
func (p *probeState) Close() error                  { return nil }

func (e *Executor) buildNLJN(p *optimizer.Plan) (Node, error) {
	outer, err := e.Build(p.Children[0])
	if err != nil {
		return nil, err
	}
	outerCols, innerCols := e.RowCols(p.Children[0]), e.RowCols(p.Children[1])
	join, err := e.newJoinOutput(p, outerCols, innerCols)
	if err != nil {
		return nil, err
	}
	n := &nljnNode{base: base{plan: p}, ex: e, outer: cursor{child: outer}, join: join, out: NewBatch(e.batchCap),
		outT: Ticks(e.Cost.OutputRow), evalT: Ticks(e.Cost.PredEval)}
	if p.IndexJoin {
		innerPlan := p.Children[1]
		t := e.tabs[innerPlan.Table]
		ix := t.BTreeOn(innerPlan.IndexOrd)
		if ix == nil {
			return nil, fmt.Errorf("executor: index NLJN without B+tree on %s ordinal %d", t.Name, innerPlan.IndexOrd)
		}
		innerFilter, err := e.compileFilter(innerPlan.Filter, innerCols)
		if err != nil {
			return nil, err
		}
		n.outerKey, err = layoutOf(outerCols).pos(outerCols, p.LookupCol)
		if err != nil {
			return nil, err
		}
		n.probe = &probeState{
			base:     base{plan: innerPlan},
			ix:       ix,
			filter:   innerFilter,
			descentT: Ticks(float64(ix.Height()) * e.Cost.IndexLevel),
			fetchT:   Ticks(e.Cost.FetchRow + float64(innerFilter.Len())*e.Cost.PredEval),
		}
		n.children = []Node{outer, n.probe}
		return n, nil
	}
	inner, err := e.Build(p.Children[1])
	if err != nil {
		return nil, err
	}
	if _, ok := inner.(Rewinder); !ok {
		return nil, fmt.Errorf("executor: naive NLJN inner %s is not rewindable", inner.Plan().Op)
	}
	n.inner.child = inner
	n.children = []Node{outer, inner}
	return n, nil
}

func (n *nljnNode) Open() error {
	n.stats = NodeStats{Opened: true}
	n.haveOut = false
	n.matches, n.mpos = n.matches[:0], 0
	n.outer.b, n.inner.b = nil, nil
	for _, c := range n.children {
		if err := c.Open(); err != nil {
			return err
		}
	}
	return nil
}

func (n *nljnNode) NextBatch(max int) (*Batch, error) {
	if err := n.takePending(); err != nil {
		return nil, err
	}
	b := n.out
	b.Reset()
	max = b.room(max)
	var err error
	if n.probe != nil {
		err = n.fillIndex(b, max)
	} else {
		err = n.fillNaive(b, max)
	}
	n.chargeTicks(n.ex, n.outT, b.Len())
	return n.emit(b, err)
}

// nextOuter makes the next outer row current. Outer rows are pulled one at a
// time: each costs an index descent or a full inner rescan, next to which a
// pull is nothing, and one outer row can owe any number of output rows, so a
// larger pull would run the outer past the point where a consumer that stops
// early — a CHECK about to fire — stops.
func (n *nljnNode) nextOuter() (bool, error) {
	row, ok, err := n.outer.next(1)
	if err != nil || !ok {
		n.stats.Done = err == nil
		if n.probe != nil {
			n.probe.stats.Done = n.stats.Done // the last probe has been made
		}
		return false, err
	}
	n.outerRow = row
	return true, nil
}

// fillNaive pairs each outer row with every inner row, pulling inner rows in
// batches no larger than the output still owed: an inner row yields at most
// one output row.
func (n *nljnNode) fillNaive(b *Batch, max int) error {
	evals := 0
	defer func() { n.chargeTicks(n.ex, n.evalT, evals) }()
	for b.Len() < max {
		if !n.haveOut {
			ok, err := n.nextOuter()
			if err != nil || !ok {
				return err
			}
			n.haveOut = true
			n.inner.b = nil
			if err := n.inner.child.(Rewinder).Rewind(); err != nil {
				return err
			}
		}
		irow, ok, err := n.inner.next(max - b.Len())
		if err != nil {
			return err
		}
		if !ok {
			n.haveOut = false
			continue
		}
		evals++
		if _, err := n.join.emit(b, n.outerRow, irow); err != nil {
			return err
		}
	}
	return nil
}

// fillIndex probes the inner B+tree once per outer row: the descent and every
// fetched inner row are charged to the probe edge when the outer row is
// taken, and the matches that passed the inner filter are then joined, tested
// against the join filter and emitted as room allows.
func (n *nljnNode) fillIndex(b *Batch, max int) error {
	p := n.probe
	outers, fetched := 0, 0
	defer func() {
		p.chargeTicks(n.ex, p.descentT, outers)
		p.chargeTicks(n.ex, p.fetchT, fetched)
		p.stats.Fetched += float64(fetched)
	}()
	for b.Len() < max {
		if n.mpos == len(n.matches) {
			n.matches, n.mpos = n.matches[:0], 0
			ok, err := n.nextOuter()
			if err != nil || !ok {
				return err
			}
			outers++
			for _, rid := range p.ix.Lookup(n.outerRow[n.outerKey]) {
				irow, err := p.ix.Table().Get(rid)
				if err != nil {
					return err
				}
				fetched++
				keep, err := p.filter.Test(irow)
				if err != nil {
					return err
				}
				if keep {
					p.stats.RowsOut++
					n.matches = append(n.matches, irow)
				}
			}
			continue
		}
		irow := n.matches[n.mpos]
		n.mpos++
		if _, err := n.join.emit(b, n.outerRow, irow); err != nil {
			return err
		}
	}
	return nil
}

func (n *nljnNode) Close() error { return n.closeChildren() }

// hsjnNode is a hash join: it fully materializes and hashes the build child
// (children[1]) on Open, then streams the probe child. Builds larger than
// the memory budget simulate grace-hash staging by charging spill work for
// every build and probe row per extra stage — the cost cliff the validity
// analysis must cope with. The build lives in mem, held from Open to Close.
type hsjnNode struct {
	base
	ex        *Executor
	build     Node
	probeKeys []int // positions in probe rows
	buildKeys []int // positions in build rows
	join      joinOutput

	mem        *buildMem
	spillExtra float64 // extra work charged per probe row
	// curBucket/curIdx cursor over the current probe row's hash bucket:
	// match candidates are key-checked lazily at emission, so no per-probe
	// match slice is ever built.
	curBucket []schema.Row
	curIdx    int
	curProbe  schema.Row

	in     cursor // probe input
	out    *Batch // reusable output batch
	probeT int64  // pre-scaled per-probe-row charge
	outT   int64  // pre-scaled per-output-row charge
}

// buildMem is a hash join's build memory: its table, the drained build rows
// and the chunks its ephemeral build rows are copied into. A join takes one
// from buildMems in Open and returns it in Close, so a stream of executions
// of a cached plan reuses the same arrays instead of making them anew. No
// row of it is handed upward: emit copies every output row into the join's
// own batch, so nothing outlives Close holding build memory.
type buildMem struct {
	table  joinTable
	rows   []schema.Row
	copies rowArena
}

var buildMems = sync.Pool{New: func() any { return new(buildMem) }}

// clear empties m for the next build, dropping every row and datum it
// referenced so that a pooled buildMem keeps no string or row alive.
func (m *buildMem) clear() {
	clear(m.rows)
	m.rows = m.rows[:0]
	clear(m.table.rows)
	m.table.rows = m.table.rows[:0]
	m.copies.reset()
}

// rowArena copies ephemeral rows into chunks it keeps for reuse, the way the
// optimizer's slab carves its arena.
type rowArena struct {
	chunks [][]types.Datum // each chunk's length is its carved part
	cur    int             // the chunk carving continues in
}

// arenaChunk is the least number of datums a rowArena chunk holds.
const arenaChunk = 1024

// keep appends b's rows to dst: stable rows by reference, ephemeral ones
// copied into the arena, one carve per batch.
func (a *rowArena) keep(dst []schema.Row, b *Batch) []schema.Row {
	if !b.ephemeral {
		return append(dst, b.Rows...)
	}
	total := 0
	for _, r := range b.Rows {
		total += len(r)
	}
	backing, off := a.take(total), 0
	for _, r := range b.Rows {
		nr := backing[off : off+len(r) : off+len(r)]
		copy(nr, r)
		dst = append(dst, schema.Row(nr))
		off += len(r)
	}
	return dst
}

// take carves n datums, from the first chunk with room from the current on.
func (a *rowArena) take(n int) []types.Datum {
	for ; a.cur < len(a.chunks); a.cur++ {
		if c := a.chunks[a.cur]; cap(c)-len(c) >= n {
			a.chunks[a.cur] = c[:len(c)+n]
			return c[len(c) : len(c)+n]
		}
	}
	c := make([]types.Datum, n, max(n, arenaChunk))
	a.chunks = append(a.chunks, c)
	return c
}

// reset zeroes the carved part of every chunk and starts carving again from
// the first.
func (a *rowArena) reset() {
	for i, c := range a.chunks {
		clear(c)
		a.chunks[i] = c[:0]
	}
	a.cur = 0
}

func (e *Executor) buildHSJN(p *optimizer.Plan) (Node, error) {
	probe, err := e.Build(p.Children[0])
	if err != nil {
		return nil, err
	}
	build, err := e.Build(p.Children[1])
	if err != nil {
		return nil, err
	}
	n := &hsjnNode{
		base:  base{plan: p, children: []Node{probe, build}},
		ex:    e,
		build: build,
		in:    cursor{child: probe},
		out:   NewBatch(e.batchCap),
	}
	n.probeKeys, n.buildKeys, n.join, err = e.equiJoin(p)
	if err != nil {
		return nil, err
	}
	return n, nil
}

// equiJoin resolves an equi-join's keys into positions in its probe (child 0)
// and build (child 1) row layouts, and its output.
func (e *Executor) equiJoin(p *optimizer.Plan) (probeKeys, buildKeys []int, join joinOutput, err error) {
	probeCols, buildCols := e.RowCols(p.Children[0]), e.RowCols(p.Children[1])
	probeLay, buildLay := layoutOf(probeCols), layoutOf(buildCols)
	for i := range p.EquiLeft {
		pk, err := probeLay.pos(probeCols, p.EquiLeft[i])
		if err != nil {
			return nil, nil, join, err
		}
		bk, err := buildLay.pos(buildCols, p.EquiRight[i])
		if err != nil {
			return nil, nil, join, err
		}
		probeKeys = append(probeKeys, pk)
		buildKeys = append(buildKeys, bk)
	}
	join, err = e.newJoinOutput(p, probeCols, buildCols)
	return probeKeys, buildKeys, join, err
}

func keysEqual(a schema.Row, aKeys []int, b schema.Row, bKeys []int) bool {
	for i := range aKeys {
		c, err := a[aKeys[i]].Compare(b[bKeys[i]])
		if err != nil || c != 0 {
			return false
		}
	}
	return true
}

func (n *hsjnNode) Open() error {
	n.stats = NodeStats{Opened: true}
	n.curBucket, n.curIdx, n.curProbe = nil, 0, nil
	n.mem = buildMems.Get().(*buildMem)
	m := n.mem
	pr := &n.ex.Cost
	if err := n.build.Open(); err != nil {
		return err
	}
	var err error
	if m.rows, err = n.drainMaterialize(n.ex, n.build, m.rows, pr.HashBuildRow, m.copies.keep); err != nil {
		return err
	}
	m.table.build(n.ex, n.buildKeys, m.rows)
	n.spillExtra = n.stageBuild(n.ex, len(m.rows))
	// Pre-scale the per-row charges once per Open; the spill surcharge is part
	// of the probe charge, rounded to ticks together with it.
	n.probeT = Ticks(pr.HashProbeRow + n.spillExtra)
	n.outT = Ticks(pr.OutputRow)
	n.in.b = nil
	return n.in.child.Open()
}

// NextBatch probes the hash table with input pulled batch-at-a-time,
// carving joined rows from the output slab. The pull size is bounded by the
// output still owed, so an eager CHECK above the join bounds how far the
// probe runs past its validity range. Probe rows charge HashProbeRow
// (+spill surcharge) and emitted rows OutputRow, each pre-scaled and
// aggregated per batch.
func (n *hsjnNode) NextBatch(max int) (*Batch, error) {
	if err := n.takePending(); err != nil {
		return nil, err
	}
	b := n.out
	b.Reset()
	consumed, err := n.fill(b, b.room(max))
	n.chargeTicks(n.ex, n.probeT, consumed)
	n.chargeTicks(n.ex, n.outT, b.Len())
	return n.emit(b, err)
}

// fill joins probe rows into b until it holds max rows or the probe input
// ends or fails, and reports how many probe rows it consumed.
func (n *hsjnNode) fill(b *Batch, max int) (consumed int, err error) {
	for b.Len() < max {
		// Emit pending matches for the current probe row, key-checking each
		// bucket candidate lazily.
		for n.curIdx < len(n.curBucket) && b.Len() < max {
			m := n.curBucket[n.curIdx]
			n.curIdx++
			if !keysEqual(n.curProbe, n.probeKeys, m, n.buildKeys) {
				continue
			}
			if _, err := n.join.emit(b, n.curProbe, m); err != nil {
				return consumed, err
			}
		}
		if n.curIdx < len(n.curBucket) {
			break // batch full mid-bucket; curProbe stays valid until the next pull
		}
		row, ok, err := n.in.next(max - b.Len())
		if err != nil || !ok {
			n.stats.Done = err == nil
			return consumed, err
		}
		consumed++
		if h, hasKey := n.ex.keyHash(row, n.probeKeys, false); hasKey {
			n.curProbe = row
			n.curBucket, n.curIdx = n.mem.table.bucket(h), 0
		}
	}
	return consumed, nil
}

// Close returns the build memory to the pool; a second Close finds none.
func (n *hsjnNode) Close() error {
	if n.mem != nil {
		n.mem.clear()
		buildMems.Put(n.mem)
		n.mem = nil
	}
	return n.closeChildren()
}

// mgjnNode merges two inputs sorted ascending on their single join keys,
// buffering duplicate groups on the right.
type mgjnNode struct {
	base
	ex       *Executor
	left     cursor
	right    cursor
	leftKey  int
	rightKey int
	join     joinOutput
	out      *Batch // reusable output batch

	lrow    schema.Row
	lok     bool
	group   []schema.Row // current right-side duplicate group
	gpos    int
	rahead  schema.Row // lookahead right row
	rvalid  bool
	started bool
	merged  int // input rows advanced over during the current call
}

func (e *Executor) buildMGJN(p *optimizer.Plan) (Node, error) {
	left, err := e.Build(p.Children[0])
	if err != nil {
		return nil, err
	}
	right, err := e.Build(p.Children[1])
	if err != nil {
		return nil, err
	}
	lks, rks, join, err := e.equiJoin(p)
	if err != nil {
		return nil, err
	}
	return &mgjnNode{
		base:     base{plan: p, children: []Node{left, right}},
		ex:       e,
		left:     cursor{child: left},
		right:    cursor{child: right},
		leftKey:  lks[0],
		rightKey: rks[0],
		join:     join,
		out:      NewBatch(e.batchCap),
	}, nil
}

func (n *mgjnNode) Open() error {
	n.stats = NodeStats{Opened: true}
	n.started = false
	n.group = nil
	n.left.b, n.right.b = nil, nil
	if err := n.left.child.Open(); err != nil {
		return err
	}
	return n.right.child.Open()
}

// advanceLeft and advanceRight pull a single row: how far the merge reads into
// one input is decided row by row by the other, and a larger pull would run a
// producer past the point where the join, or a CHECK below it, stops.
func (n *mgjnNode) advanceLeft() (err error) {
	n.lrow, n.lok, err = n.left.next(1)
	if n.lok {
		n.merged++
	}
	return err
}

func (n *mgjnNode) advanceRight() (err error) {
	n.rahead, n.rvalid, err = n.right.next(1)
	if n.rvalid {
		n.merged++
	}
	return err
}

// loadGroup collects the run of right rows equal to the current lookahead.
// The group outlives the batches its rows arrived in, so rows carved from a
// producer's slab are copied.
func (n *mgjnNode) loadGroup() error {
	n.group = n.group[:0]
	key := n.rahead[n.rightKey]
	for n.rvalid {
		c, err := n.rahead[n.rightKey].Compare(key)
		if err != nil || c != 0 {
			break
		}
		if n.right.b.Ephemeral() {
			n.rahead = n.rahead.Clone()
		}
		n.group = append(n.group, n.rahead)
		if err := n.advanceRight(); err != nil {
			return err
		}
	}
	return nil
}

// NextBatch runs the merge until max joined rows are carved or an input ends.
// Every input row advanced over charges MergeRow and every emitted row
// OutputRow, aggregated per batch.
func (n *mgjnNode) NextBatch(max int) (*Batch, error) {
	if err := n.takePending(); err != nil {
		return nil, err
	}
	b := n.out
	b.Reset()
	max = b.room(max)
	n.merged = 0
	err := n.fill(b, max)
	n.chargeTicks(n.ex, Ticks(n.ex.Cost.MergeRow), n.merged)
	n.chargeTicks(n.ex, Ticks(n.ex.Cost.OutputRow), b.Len())
	return n.emit(b, err)
}

func (n *mgjnNode) fill(b *Batch, max int) error {
	if !n.started {
		n.started = true
		if err := n.advanceLeft(); err != nil {
			return err
		}
		if err := n.advanceRight(); err != nil {
			return err
		}
	}
	for b.Len() < max {
		if n.lok && n.gpos < len(n.group) {
			// Emit the next pair of the current left row and group.
			r := n.group[n.gpos]
			n.gpos++
			if _, err := n.join.emit(b, n.lrow, r); err != nil {
				return err
			}
			continue
		}
		if n.lok && len(n.group) > 0 {
			// Group exhausted for this left row; the next left row may match
			// the same group (duplicates on the left).
			if err := n.advanceLeft(); err != nil {
				return err
			}
			if n.lok {
				if c, err := n.lrow[n.leftKey].Compare(n.group[0][n.rightKey]); err == nil && c == 0 {
					n.gpos = 0
					continue
				}
			}
			n.group = n.group[:0]
			continue
		}
		if !n.lok || !n.rvalid {
			n.stats.Done = true
			return nil
		}
		// No active group: align the sides. NULL keys never match.
		var c int
		switch {
		case n.lrow[n.leftKey].IsNull():
			c = -1
		case n.rahead[n.rightKey].IsNull():
			c = 1
		default:
			var err error
			if c, err = n.lrow[n.leftKey].Compare(n.rahead[n.rightKey]); err != nil {
				return err
			}
		}
		var err error
		switch {
		case c < 0:
			err = n.advanceLeft()
		case c > 0:
			err = n.advanceRight()
		default:
			err = n.loadGroup()
			n.gpos = 0
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (n *mgjnNode) Close() error { return n.closeChildren() }
