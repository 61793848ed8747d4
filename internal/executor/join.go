package executor

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/types"
)

// nljnNode implements both naive and index nested-loop joins. The naive
// variant rewinds its inner child once per outer row; the index variant
// probes a B+tree on the inner table with a key taken from the outer row.
type nljnNode struct {
	base
	ex     *Executor
	outer  Node
	inner  Node // naive variant only
	filter expr.Expr

	// Index variant.
	probe     *probeState
	outerKey  int // position of the lookup key in the outer row
	innerPlan *optimizer.Plan

	haveOut bool
	// pair is the naive variant's scratch: the current outer row (outerLen
	// datums) followed by the inner row under test. The join filter is
	// evaluated on it and only accepted pairs are copied out, so a rejected
	// pair allocates nothing.
	pair     schema.Row
	outerLen int
	// queued inner matches for the index variant
	queue []schema.Row
}

// probeState tracks the index-probe machinery of an index NLJN and doubles
// as the Node for the inner edge so tree walks see both children.
type probeState struct {
	base
	ix     *storage.BTreeIndex
	filter expr.Expr // inner residual filter in table layout
	npred  float64
}

func (p *probeState) Open() error                     { p.stats.Opened = true; return nil }
func (p *probeState) Next() (schema.Row, bool, error) { return nil, false, nil }
func (p *probeState) Close() error                    { return nil }

func (e *Executor) buildNLJN(p *optimizer.Plan) (Node, error) {
	outer, err := e.Build(p.Children[0])
	if err != nil {
		return nil, err
	}
	filter, err := e.remap(p.Filter, p.Cols)
	if err != nil {
		return nil, err
	}
	n := &nljnNode{base: base{plan: p}, ex: e, outer: outer, filter: filter}
	if p.IndexJoin {
		innerPlan := p.Children[1]
		t := e.tabs[innerPlan.Table]
		ix := t.BTreeOn(innerPlan.IndexOrd)
		if ix == nil {
			return nil, fmt.Errorf("executor: index NLJN without B+tree on %s ordinal %d", t.Name, innerPlan.IndexOrd)
		}
		innerFilter, err := e.remap(innerPlan.Filter, innerPlan.Cols)
		if err != nil {
			return nil, err
		}
		keyPos, err := layoutOf(p.Children[0].Cols).pos(p.Children[0].Cols, p.LookupCol)
		if err != nil {
			return nil, err
		}
		n.outerKey = keyPos
		n.innerPlan = innerPlan
		n.probe = &probeState{
			base:   base{plan: innerPlan},
			ix:     ix,
			filter: innerFilter,
			npred:  float64(len(expr.Conjuncts(innerPlan.Filter))),
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
	n.inner = inner
	n.children = []Node{outer, inner}
	return n, nil
}

func (n *nljnNode) Open() error {
	n.stats = NodeStats{Opened: true}
	n.haveOut = false
	n.queue = nil
	if err := n.outer.Open(); err != nil {
		return err
	}
	if n.inner != nil {
		return n.inner.Open()
	}
	return n.probe.Open()
}

func (n *nljnNode) Next() (schema.Row, bool, error) {
	if n.probe != nil {
		return n.nextIndex()
	}
	return n.nextNaive()
}

func (n *nljnNode) nextNaive() (schema.Row, bool, error) {
	pr := &n.ex.Cost
	for {
		if !n.haveOut {
			row, ok, err := n.outer.Next()
			if err != nil || !ok {
				n.stats.Done = ok == false && err == nil
				return nil, false, err
			}
			n.haveOut = true
			n.pair = append(n.pair[:0], row...)
			n.outerLen = len(row)
			if err := n.inner.(Rewinder).Rewind(); err != nil {
				return nil, false, err
			}
		}
		irow, ok, err := n.inner.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			n.haveOut = false
			continue
		}
		n.charge(n.ex, pr.PredEval)
		n.pair = append(n.pair[:n.outerLen], irow...)
		keep, err := evalFilter(n.filter, n.ex.ectx, n.pair)
		if err != nil {
			return nil, false, err
		}
		if keep {
			n.charge(n.ex, pr.OutputRow)
			n.stats.RowsOut++
			return n.pair.Clone(), true, nil
		}
	}
}

func (n *nljnNode) nextIndex() (schema.Row, bool, error) {
	pr := &n.ex.Cost
	for {
		if len(n.queue) > 0 {
			joined := n.queue[0]
			n.queue = n.queue[1:]
			keep, err := evalFilter(n.filter, n.ex.ectx, joined)
			if err != nil {
				return nil, false, err
			}
			if keep {
				n.charge(n.ex, pr.OutputRow)
				n.stats.RowsOut++
				return joined, true, nil
			}
			continue
		}
		orow, ok, err := n.outer.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			n.stats.Done = true
			return nil, false, nil
		}
		key := orow[n.outerKey]
		n.probe.charge(n.ex, float64(n.probe.ix.Height())*pr.IndexLevel)
		for _, rid := range n.probe.ix.Lookup(key) {
			irow, err := n.probe.ix.Table().Get(rid)
			if err != nil {
				return nil, false, err
			}
			n.probe.charge(n.ex, pr.FetchRow+n.probe.npred*pr.PredEval)
			keep, err := evalFilter(n.probe.filter, n.ex.ectx, irow)
			if err != nil {
				return nil, false, err
			}
			if keep {
				n.probe.stats.RowsOut++
				n.queue = append(n.queue, orow.Concat(irow))
			}
		}
	}
}

func (n *nljnNode) Close() error { return n.closeChildren() }

// hsjnNode is a hash join: it fully materializes and hashes the build child
// (children[1]) on Open, then streams the probe child. Builds larger than
// the memory budget simulate grace-hash staging by charging spill work for
// every build and probe row per extra stage — the cost cliff the validity
// analysis must cope with.
type hsjnNode struct {
	base
	ex        *Executor
	probe     Node
	build     Node
	probeKeys []int // positions in probe rows
	buildKeys []int // positions in build rows
	filter    expr.Expr

	table      map[uint64][]schema.Row
	spillExtra float64 // extra work charged per probe row
	// curBucket/curIdx cursor over the current probe row's hash bucket:
	// match candidates are key-checked lazily at emission, so no per-probe
	// match slice is ever built.
	curBucket []schema.Row
	curIdx    int
	curProbe  schema.Row

	// Batch-mode state: the probe edge, the reusable output batch, a held
	// input batch with its cursor, and the pre-scaled per-row charges.
	probeEdge *batchEdge
	out       *Batch
	inBatch   *Batch
	inPos     int
	probeT    int64
	outT      int64
	width     int // joined-row width (probe + build columns)

	// buildRows retains the complete build input (including NULL-keyed rows
	// the hash table drops) so the build can be promoted to a temp MV — the
	// reuse enhancement the paper's §4 plans for its prototype.
	buildRows []schema.Row
	buildDone bool
}

// BuildMaterializer is implemented by joins that fully materialize one
// input; the POP runner can promote that input to a temporary materialized
// view when Options.ReuseHashBuilds is set.
type BuildMaterializer interface {
	// BuildMaterialized returns the materialized input rows, the child index
	// they came from, and whether the materialization completed.
	BuildMaterialized() (rows []schema.Row, childIndex int, done bool)
}

// BuildMaterialized exposes the completed hash-join build.
func (n *hsjnNode) BuildMaterialized() ([]schema.Row, int, bool) {
	return n.buildRows, 1, n.buildDone
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
	filter, err := e.remap(p.Filter, p.Cols)
	if err != nil {
		return nil, err
	}
	n := &hsjnNode{
		base:   base{plan: p, children: []Node{probe, build}},
		ex:     e,
		probe:  probe,
		build:  build,
		filter: filter,
	}
	n.probeKeys, n.buildKeys, err = equiKeyPositions(p)
	if err != nil {
		return nil, err
	}
	return n, nil
}

// equiKeyPositions resolves a join's equi-key global ids into positions in
// the probe (child 0) and build (child 1) row layouts, each indexed once.
func equiKeyPositions(p *optimizer.Plan) (probeKeys, buildKeys []int, err error) {
	probeLay := layoutOf(p.Children[0].Cols)
	buildLay := layoutOf(p.Children[1].Cols)
	for i := range p.EquiLeft {
		pk, err := probeLay.pos(p.Children[0].Cols, p.EquiLeft[i])
		if err != nil {
			return nil, nil, err
		}
		bk, err := buildLay.pos(p.Children[1].Cols, p.EquiRight[i])
		if err != nil {
			return nil, nil, err
		}
		probeKeys = append(probeKeys, pk)
		buildKeys = append(buildKeys, bk)
	}
	return probeKeys, buildKeys, nil
}

func hashKeyAt(row schema.Row, keys []int) (uint64, bool) {
	h := types.HashSeed
	for _, k := range keys {
		if row[k].IsNull() {
			return 0, false
		}
		h = row[k].HashFold(h)
	}
	return h, true
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
	n.curBucket, n.curIdx = nil, 0
	n.buildRows = n.buildRows[:0]
	n.buildDone = false
	pr := &n.ex.Cost
	if err := n.build.Open(); err != nil {
		return err
	}
	var err error
	n.buildRows, err = n.drainMaterialize(n.ex, n.build, n.buildRows, pr.HashBuildRow)
	if err != nil {
		return err
	}
	// Two-pass arena build: count each bucket, carve all buckets out of one
	// backing slice, then fill. Appends never grow, so the table costs two
	// map allocations and one arena instead of a slice per distinct key.
	// Per-bucket insertion order is the build input order, same as a direct
	// append-per-row build.
	counts := make(map[uint64]int, len(n.buildRows))
	keyed := 0
	for _, row := range n.buildRows {
		if h, ok := hashKeyAt(row, n.buildKeys); ok {
			counts[h]++
			keyed++
		}
	}
	arena := make([]schema.Row, keyed)
	n.table = make(map[uint64][]schema.Row, len(counts))
	pos := 0
	buildRows := float64(len(n.buildRows))
	for _, row := range n.buildRows {
		if h, ok := hashKeyAt(row, n.buildKeys); ok {
			b, seen := n.table[h]
			if !seen {
				c := counts[h]
				b = arena[pos : pos : pos+c]
				pos += c
			}
			n.table[h] = append(b, row)
		}
	}
	n.buildDone = true
	// Grace-hash staging charge.
	width := float64(len(n.plan.Children[1].Cols)) * 12
	stages := 1.0
	if pr.MemoryBytes > 0 {
		for buildRows*width > stages*pr.MemoryBytes {
			stages++
		}
	}
	if stages > 1 {
		n.charge(n.ex, (stages-1)*buildRows*pr.SpillRow)
		n.spillExtra = (stages - 1) * pr.SpillRow
		n.stats.Spilled = true
	}
	// Pre-scale the per-row charges once per Open: spillExtra is folded into
	// the probe charge exactly as the row path passes it to a single Add.
	n.probeT = Ticks(pr.HashProbeRow + n.spillExtra)
	n.outT = Ticks(pr.OutputRow)
	if n.ex.BatchSize > 0 {
		n.probeEdge = n.ex.batchEdge(n.probe)
		if n.out == nil {
			n.out = NewBatch(n.ex.BatchSize)
		}
		n.inBatch = nil
		n.inPos = 0
	}
	return n.probe.Open()
}

// NextBatch probes the hash table with input pulled batch-at-a-time,
// carving joined rows from the output slab. The pull size is bounded by the
// remaining output need, so an eager CHECK above the join can bound how far
// the probe runs past its validity range. Probe rows charge HashProbeRow
// (+spill surcharge) and emitted rows OutputRow, each pre-scaled and
// batch-aggregated to the exact tick totals of the row path.
func (n *hsjnNode) NextBatch(max int) (*Batch, error) {
	b := n.out
	b.Reset()
	if max <= 0 || max > cap(b.Rows) {
		max = cap(b.Rows)
	}
	consumed := 0 // probe rows consumed during this call
	flush := func() {
		n.chargeTicks(n.ex, n.probeT, consumed)
		n.chargeTicks(n.ex, n.outT, b.Len())
	}
	for b.Len() < max {
		// Emit pending matches for the current probe row, key-checking each
		// bucket candidate lazily.
		for n.curIdx < len(n.curBucket) && b.Len() < max {
			m := n.curBucket[n.curIdx]
			n.curIdx++
			if !keysEqual(n.curProbe, n.probeKeys, m, n.buildKeys) {
				continue
			}
			out := b.Alloc(len(n.curProbe) + len(m))
			copy(out, n.curProbe)
			copy(out[len(n.curProbe):], m)
			keep, ferr := evalFilter(n.filter, n.ex.ectx, out)
			if ferr != nil {
				b.dropLast(len(out)) // not an output row: the row path charges no OutputRow for it
				flush()
				return nil, ferr
			}
			if !keep {
				b.dropLast(len(out))
			}
		}
		if n.curIdx < len(n.curBucket) {
			break // batch full mid-bucket; curProbe stays valid until the next pull
		}
		if n.inBatch == nil || n.inPos >= n.inBatch.Len() {
			nb, err := n.probeEdge.pull(max - b.Len())
			if err != nil {
				flush()
				return nil, err
			}
			if nb == nil {
				n.inBatch = nil
				n.stats.Done = true
				break
			}
			n.inBatch = nb
			n.inPos = 0
		}
		row := n.inBatch.Rows[n.inPos]
		n.inPos++
		consumed++
		h, hasKey := hashKeyAt(row, n.probeKeys)
		if !hasKey {
			continue
		}
		n.curProbe = row //poplint:allow batchescape probe cursor: drained into the output batch before the next pull replaces inBatch, so the alias never outlives its batch
		n.curBucket, n.curIdx = n.table[h], 0
	}
	flush()
	n.stats.RowsOut += float64(b.Len())
	if b.Len() == 0 {
		return nil, nil
	}
	return b, nil
}

func (n *hsjnNode) Next() (schema.Row, bool, error) {
	pr := &n.ex.Cost
	for {
		for n.curIdx < len(n.curBucket) {
			m := n.curBucket[n.curIdx]
			n.curIdx++
			if !keysEqual(n.curProbe, n.probeKeys, m, n.buildKeys) {
				continue
			}
			joined := n.curProbe.Concat(m)
			keep, err := evalFilter(n.filter, n.ex.ectx, joined)
			if err != nil {
				return nil, false, err
			}
			if keep {
				n.charge(n.ex, pr.OutputRow)
				n.stats.RowsOut++
				return joined, true, nil
			}
		}
		row, ok, err := n.probe.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			n.stats.Done = true
			return nil, false, nil
		}
		n.charge(n.ex, pr.HashProbeRow+n.spillExtra)
		h, hasKey := hashKeyAt(row, n.probeKeys)
		if !hasKey {
			continue
		}
		n.curProbe = row
		n.curBucket, n.curIdx = n.table[h], 0
	}
}

func (n *hsjnNode) Close() error { return n.closeChildren() }

// mgjnNode merges two inputs sorted ascending on their single join keys,
// buffering duplicate groups on the right.
type mgjnNode struct {
	base
	ex       *Executor
	left     Node
	right    Node
	leftKey  int
	rightKey int
	filter   expr.Expr

	lrow    schema.Row
	lok     bool
	group   []schema.Row // current right-side duplicate group
	gpos    int
	gkey    schema.Row // representative right row of the group
	rahead  schema.Row // lookahead right row
	rvalid  bool
	started bool
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
	filter, err := e.remap(p.Filter, p.Cols)
	if err != nil {
		return nil, err
	}
	lks, rks, err := equiKeyPositions(p)
	if err != nil {
		return nil, err
	}
	lk, rk := lks[0], rks[0]
	return &mgjnNode{
		base:     base{plan: p, children: []Node{left, right}},
		ex:       e,
		left:     left,
		right:    right,
		leftKey:  lk,
		rightKey: rk,
		filter:   filter,
	}, nil
}

func (n *mgjnNode) Open() error {
	n.stats = NodeStats{Opened: true}
	n.started = false
	n.group = nil
	if err := n.left.Open(); err != nil {
		return err
	}
	return n.right.Open()
}

func (n *mgjnNode) advanceLeft() error {
	row, ok, err := n.left.Next()
	if err != nil {
		return err
	}
	n.lrow, n.lok = row, ok
	if ok {
		n.charge(n.ex, n.ex.Cost.MergeRow)
	}
	return nil
}

func (n *mgjnNode) advanceRight() error {
	row, ok, err := n.right.Next()
	if err != nil {
		return err
	}
	n.rahead, n.rvalid = row, ok
	if ok {
		n.charge(n.ex, n.ex.Cost.MergeRow)
	}
	return nil
}

// loadGroup collects the run of right rows equal to the current lookahead.
func (n *mgjnNode) loadGroup() error {
	n.group = n.group[:0]
	n.gkey = n.rahead
	key := n.rahead[n.rightKey]
	for n.rvalid {
		c, err := n.rahead[n.rightKey].Compare(key)
		if err != nil || c != 0 {
			break
		}
		n.group = append(n.group, n.rahead)
		if err := n.advanceRight(); err != nil {
			return err
		}
	}
	return nil
}

func (n *mgjnNode) Next() (schema.Row, bool, error) {
	pr := &n.ex.Cost
	if !n.started {
		n.started = true
		if err := n.advanceLeft(); err != nil {
			return nil, false, err
		}
		if err := n.advanceRight(); err != nil {
			return nil, false, err
		}
		n.gpos = 0
	}
	for {
		// Emit pending pairs from the current group.
		for n.lok && len(n.group) > 0 && n.gpos < len(n.group) {
			c, err := n.lrow[n.leftKey].Compare(n.gkey[n.rightKey])
			if err != nil || c != 0 {
				break
			}
			joined := n.lrow.Concat(n.group[n.gpos])
			n.gpos++
			keep, ferr := evalFilter(n.filter, n.ex.ectx, joined)
			if ferr != nil {
				return nil, false, ferr
			}
			if keep {
				n.charge(n.ex, pr.OutputRow)
				n.stats.RowsOut++
				return joined, true, nil
			}
		}
		if n.lok && len(n.group) > 0 && n.gpos >= len(n.group) {
			// Exhausted group for this left row; next left row may match the
			// same group (duplicates on the left).
			if err := n.advanceLeft(); err != nil {
				return nil, false, err
			}
			if n.lok {
				if c, err := n.lrow[n.leftKey].Compare(n.gkey[n.rightKey]); err == nil && c == 0 {
					n.gpos = 0
					continue
				}
			}
			n.group = n.group[:0]
			continue
		}
		if !n.lok || (!n.rvalid && len(n.group) == 0) {
			n.stats.Done = true
			return nil, false, nil
		}
		// No active group: align the sides. NULL keys never match.
		if n.lrow[n.leftKey].IsNull() {
			if err := n.advanceLeft(); err != nil {
				return nil, false, err
			}
			continue
		}
		if n.rahead[n.rightKey].IsNull() {
			if err := n.advanceRight(); err != nil {
				return nil, false, err
			}
			if !n.rvalid && len(n.group) == 0 {
				n.stats.Done = true
				return nil, false, nil
			}
			continue
		}
		c, err := n.lrow[n.leftKey].Compare(n.rahead[n.rightKey])
		if err != nil {
			return nil, false, err
		}
		switch {
		case c < 0:
			if err := n.advanceLeft(); err != nil {
				return nil, false, err
			}
		case c > 0:
			if err := n.advanceRight(); err != nil {
				return nil, false, err
			}
			if !n.rvalid {
				n.stats.Done = true
				return nil, false, nil
			}
		default:
			if err := n.loadGroup(); err != nil {
				return nil, false, err
			}
			n.gpos = 0
		}
	}
}

func (n *mgjnNode) Close() error { return n.closeChildren() }
