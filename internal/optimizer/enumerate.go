package optimizer

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/stats"
	"repro/internal/types"
)

// Optimizer is the cost-based query optimizer. The zero value is not usable;
// construct with New. The Disable* knobs reproduce the paper's experimental
// setups (e.g. Figure 12 disables hash joins to generate many SORT
// materialization points).
type Optimizer struct {
	Cat      *catalog.Catalog
	Feedback *stats.Feedback
	Model    CostModel

	DisableHSJN      bool
	DisableMGJN      bool
	DisableNLJN      bool
	DisableIndexJoin bool

	// ForceMVReuse makes matching temporary materialized views effectively
	// free, so the optimizer always reuses them. The POP runner enables it on
	// the final permitted re-optimization to guarantee forward progress
	// (paper §7 "Ensuring Termination": "forcing the use of intermediate
	// results after several attempts").
	ForceMVReuse bool

	// Views holds the statement's temporary materialized views, keyed by
	// signature; the optimizer offers a view wherever a table subset's
	// signature names one. The POP runner sets it to the statement's own map
	// before Configure runs, so a Configure hook that sets it to nil turns MV
	// reuse off. Nil or empty, as on every cold compile, matches nothing and
	// renders no signature for matching.
	Views map[string]*MatView

	// JoinOrder selects the join-ordering algorithm (see greedy.go). The
	// default, JoinOrderAuto, is DP up to dpMaxTables tables and the
	// statistics-free greedy chain beyond; JoinOrderGreedy forces the greedy
	// chain regardless of table count.
	JoinOrder JoinOrder

	// ParamBindings, when non-empty, binds the query's parameter markers to
	// these values for estimation only: the estimator sees `col <= 5` where
	// the query says `col <= ?0`, so cardinalities come from histograms
	// instead of default selectivities. The emitted plan still carries the
	// markers (marker predicates are never sargable, so plan shape and
	// expressions are binding-independent) and remains executable under any
	// future binding — the property the plan cache relies on.
	ParamBindings []types.Datum

	// EnumeratedCandidates is set by each Optimize call to the number of join
	// and access-path candidates the enumeration costed, whether or not they
	// were built — the measure of optimization work a plan-cache hit avoids.
	// Under DP it counts the candidates of the connected subsets only
	// (enumerateDP). Like the rest of the struct it is not safe for
	// concurrent Optimize calls on one Optimizer.
	EnumeratedCandidates int
}

// New returns an optimizer with default cost parameters.
func New(cat *catalog.Catalog) *Optimizer {
	return &Optimizer{
		Cat:   cat,
		Model: CostModel{Params: DefaultCostParams()},
	}
}

// dpMaxTables is the widest join JoinOrderAuto orders by exhaustive DP;
// wider joins take the greedy chain.
const dpMaxTables = 12

// planner carries the per-query enumeration state.
type planner struct {
	opt  *Optimizer
	q    *logical.Query
	tabs []*catalog.Table
	est  *estimator
	// best maps a table subset to its best plans, one per output order.
	best map[uint64]group

	// candidates counts the join and access-path candidates the enumeration
	// costed, whether or not they were built (see EnumeratedCandidates).
	candidates int

	// narrowings counts the plan-vs-plan narrowings narrowChosen made
	// (TestNarrowingBudget), built the join plans settle built
	// (TestBuiltCandidateBudget), and derived the split shapes deriveShape
	// derived (TestSplitShapeBudget).
	narrowings int
	built      int
	derived    int

	// Per-table constants every access path and join over the table shares:
	// its column ids, its local predicates and their conjunction.
	cols        [][]int
	local       [][]expr.Expr
	localFilter []expr.Expr

	// joinPreds is the precomputed join-predicate index: every multi-table
	// WHERE conjunct with its table mask, in WHERE order. joinPredsBetween
	// filters it with mask arithmetic instead of re-walking expression trees
	// for every (subset, table) pair the enumeration probes.
	joinPreds []predMask

	// predScratch backs joinPredsBetween's result between calls. Callers
	// never retain the slice (Conjoin and equiPairs both copy what they
	// keep), so one buffer serves the whole enumeration.
	predScratch []expr.Expr

	// reach[ti] is the union of the table masks of the join predicates that
	// touch table ti, without ti itself. shapes holds each split shape
	// derived so far, keyed by its inner table and the part of the outer
	// subset those predicates reach (see splitShape).
	reach  []uint64
	shapes map[splitKey]*splitShape

	// pend holds the slot winners of the subset being enumerated, as
	// recipes, in the order their slots were first taken; slots maps an
	// order key k to 1 + the index of k's slot in pend, 0 while k's slot is
	// vacant, at index k+1 (the unordered key, -1, at 0). Once the subset's
	// last split is offered, settle builds pend into the subset's group,
	// placing each recipe by its order key's rank, and clears the slots it
	// used.
	pend  []recipe
	slots []int32

	scratch scratch
	arena   *arena
}

// arena holds the nodes keep and keepSort make and the join groups settle
// makes, carved from chunks it keeps across compiles: the planner takes it
// from arenas and Optimize returns it, so a compile allocates its kept nodes
// only where the arena it took has not yet grown to the size this compile
// needs. Kept nodes live here until Optimize copies the chosen tree out
// (detach); the plan it returns owns every node and array it reaches, and
// nothing else of the arena survives it.
type arena struct {
	plans slab[Plan]
	kids  slab[*Plan]
	cols  slab[int]
	keys  slab[SortKey]
}

var arenas = sync.Pool{New: func() any { return new(arena) }}

// node returns an arena copy of p. Its slices still alias p's.
func (a *arena) node(p *Plan) *Plan {
	n := &a.plans.take(1)[0]
	*n = *p
	return n
}

// join returns a zeroed arena node with its two-child array and room for
// ncols output columns.
func (a *arena) join(ncols int) *Plan {
	n := &a.plans.take(1)[0]
	n.Children = a.kids.take(2)
	n.Cols = a.cols.take(ncols)[:0]
	return n
}

// release clears what the compile used, so that no stale pointer keeps an
// expression or an MV alive, and returns the arena to the pool.
func (a *arena) release() {
	a.plans.reset()
	a.kids.reset()
	a.cols.reset()
	a.keys.reset()
	arenas.Put(a)
}

// slabChunk is the length of each chunk a slab carves.
const slabChunk = 512

// slab carves zeroed slices from chunks it keeps for reuse.
type slab[T any] struct {
	chunks [][]T // each chunk's length is its carved part
	cur    int   // the chunk carving continues in
}

// take returns a zeroed slice of length and capacity n. Capping the capacity
// makes an append by its holder reallocate rather than write into the slice
// carved next.
func (s *slab[T]) take(n int) []T {
	for ; s.cur < len(s.chunks); s.cur++ {
		if c := s.chunks[s.cur]; cap(c)-len(c) >= n {
			s.chunks[s.cur] = c[:len(c)+n]
			return c[len(c) : len(c)+n : len(c)+n]
		}
	}
	c := make([]T, n, max(n, slabChunk))
	s.chunks = append(s.chunks, c)
	return c[:n:n]
}

// reset zeroes the carved part of every chunk and starts carving again from
// the first.
func (s *slab[T]) reset() {
	for i, c := range s.chunks {
		clear(c)
		s.chunks[i] = c[:0]
	}
	s.cur = 0
}

// detach deep-copies the tree at p out of the arena: every node and the
// Children, Cols and SortKeys arrays it holds. No arena node carries a
// validity range; narrowChosen sets them on the copy.
func detach(p *Plan) *Plan {
	n := *p
	if len(p.Children) > 0 {
		n.Children = make([]*Plan, len(p.Children))
		for i, c := range p.Children {
			n.Children[i] = detach(c)
		}
	}
	n.Cols = cloneOrNil(p.Cols)
	n.SortKeys = cloneOrNil(p.SortKeys)
	return &n
}

// cloneOrNil copies s to the heap; an empty s becomes nil.
func cloneOrNil[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}

// group holds a subset's plans, at most one per output order, sorted by
// order key (the unordered plan, key -1, first). Visiting it in slice order
// makes everything the visit order can reach — cost tie-breaks, candidate
// generation, the order of narrowings — deterministic by construction.
type group []*Plan

// recipe is a candidate holding its order slot in pend: for a join, what
// split.build needs to build it — shape and outer are the split and outer
// plan it joins, ij its probed index for an index NLJN, and flip marks the
// hash join that builds on the outer subset. An MVSCAN needs no build; its
// recipe carries the plan itself as outer.
type recipe struct {
	shape   *splitShape
	outer   *Plan
	ij      *indexJoin
	op      OpKind
	flip    bool
	ordered int
	cost    float64
}

// scratch is the planner-owned storage joins are built in: by settle, once
// per slot winner, before keep copies it to the arena with the SORT or
// index-probe child built for it, and by narrowing, which only reads it.
type scratch struct {
	node    Plan
	kids    [2]*Plan
	sort    Plan // SORT enforcer over the outer of a merge join
	sortKid [1]*Plan
	sortKey [1]SortKey
	probe   Plan // parameterized index probe under an index NLJN
}

// newPlanner sets up the enumeration state for q and seeds it with every
// table's access paths.
func (o *Optimizer) newPlanner(q *logical.Query) (*planner, error) {
	tabs := make([]*catalog.Table, len(q.Tables))
	for i, tr := range q.Tables {
		t, err := o.Cat.Table(tr.Table)
		if err != nil {
			return nil, err
		}
		tabs[i] = t
	}
	// Estimation runs against the bound query when parameter bindings are
	// supplied; plan construction always uses the marker query. The two are
	// structurally identical (same tables, same global-id layout), so masks
	// and column ids transfer directly.
	estQ := q
	if len(o.ParamBindings) > 0 {
		estQ = logical.BindParams(q, o.ParamBindings)
	}
	pl := &planner{
		opt:  o,
		q:    q,
		tabs: tabs,
		est:  newEstimator(estQ, tabs, o.Feedback),
		best: make(map[uint64]group),

		reach:  make([]uint64, len(tabs)),
		shapes: make(map[splitKey]*splitShape),
		slots:  make([]int32, q.NumColumns()+1),
		arena:  arenas.Get().(*arena),
	}
	for ti := range tabs {
		cols := make([]int, q.Schemas[ti].Len())
		for i := range cols {
			cols[i] = q.GlobalID(ti, i)
		}
		local := q.LocalPredicates(ti)
		pl.cols = append(pl.cols, cols)
		pl.local = append(pl.local, local)
		pl.localFilter = append(pl.localFilter, expr.Conjoin(local...))
	}
	for _, p := range q.JoinPredicates() {
		m := q.TablesUsed(p)
		pl.joinPreds = append(pl.joinPreds, predMask{pred: p, mask: m})
		for ti := range tabs {
			if bit := uint64(1) << uint(ti); m&bit != 0 {
				pl.reach[ti] |= m &^ bit
			}
		}
	}
	for ti := range tabs {
		for _, ap := range pl.baseAccessPaths(ti) {
			pl.addPath(ap)
		}
	}
	return pl, nil
}

// Optimize compiles the query into the cheapest physical plan, with validity
// ranges on its edges.
func (o *Optimizer) Optimize(q *logical.Query) (*Plan, error) {
	pl, err := o.newPlanner(q)
	if err != nil {
		return nil, err
	}
	defer pl.arena.release()
	n := len(q.Tables)
	full := uint64(1)<<uint(n) - 1
	if n > 1 {
		if o.JoinOrder == JoinOrderAuto && n <= dpMaxTables {
			pl.enumerateDP(full)
		} else if err := pl.enumerateGreedyVisible(full); err != nil {
			o.EnumeratedCandidates = pl.candidates
			return nil, err
		}
	}
	o.EnumeratedCandidates = pl.candidates
	join := pl.bestOf(full)
	if join == nil {
		return nil, maskError(pl.est, full)
	}
	join = detach(join)
	pl.narrowChosen(join)
	return pl.finish(join)
}

// addPath offers a single table's access path, or an MVSCAN of it, for its
// order slot in its group: it takes the slot if the slot is vacant or its
// incumbent costs more, and then gets its SORT cost. Pruning sets no
// validity range and reads none. The slots of larger subsets are decided in
// pend (planner.record) and written by settle.
func (pl *planner) addPath(p *Plan) {
	pl.candidates++
	g := pl.best[p.tables]
	switch i, found := slices.BinarySearchFunc(g, p.ordered, byOrder); {
	case !found:
		pl.best[p.tables] = slices.Insert(g, i, p)
	case p.Cost < g[i].Cost:
		g[i] = p
	default:
		return
	}
	p.sortCost = pl.opt.Model.Params.sortCost(p.Card, p.Cost)
}

// byOrder compares a group's plan with an order key.
func byOrder(p *Plan, ordered int) int { return cmp.Compare(p.ordered, ordered) }

// record counts a candidate of the subset being enumerated, with order key
// ordered and cost cost, and decides its slot before any recipe exists: it
// returns the pend entry the caller writes the candidate's recipe into if
// the slot is vacant or its incumbent costs more, and nil otherwise. A
// candidate that does not take its slot is never formed into a recipe; one
// that loses its slot later is overwritten unbuilt. An order key past the
// slot index (an MV ordered on an output column) grows it.
func (pl *planner) record(ordered int, cost float64) *recipe {
	pl.candidates++
	k := ordered + 1
	if k >= len(pl.slots) {
		pl.slots = append(pl.slots, make([]int32, k+1-len(pl.slots))...)
	}
	if i := pl.slots[k]; i != 0 {
		if r := &pl.pend[i-1]; cost < r.cost {
			return r
		}
		return nil
	}
	pl.pend = append(pl.pend, recipe{})
	pl.slots[k] = int32(len(pl.pend))
	return &pl.pend[len(pl.pend)-1]
}

// settle completes subset mask, whose estimated cardinality is outCard,
// once its last split is offered: it offers a matching MV after every join,
// then builds each join recipe in pend into a fresh arena node, gives every
// winner its SORT cost and makes the winners mask's group, sorted by order
// key: pend holds one recipe per key, so a recipe's index in the group is
// the number of keys below its own. It clears each slot's index entry as it
// goes. So each surviving slot is built exactly once, and a join the MV
// displaces never is.
func (pl *planner) settle(mask uint64, outCard float64) {
	if mv := pl.matchMV(mask); mv != nil {
		if r := pl.record(mv.ordered, mv.Cost); r != nil {
			*r = recipe{outer: mv, op: OpMVScan, ordered: mv.ordered, cost: mv.Cost}
		}
	}
	if len(pl.pend) == 0 {
		return
	}
	s := split{pl: pl, mask: mask, outCard: outCard}
	g := group(pl.arena.kids.take(len(pl.pend)))
	cp := &pl.opt.Model.Params
	for i := range pl.pend {
		r := &pl.pend[i]
		pl.slots[r.ordered+1] = 0
		rank := 0 // r's index in the group: the slots with a lower order key
		for j := range pl.pend {
			if pl.pend[j].ordered < r.ordered {
				rank++
			}
		}
		p := r.outer
		if r.op != OpMVScan {
			s.splitShape = r.shape
			p = pl.keep(s.build(r))
			pl.built++
		}
		p.sortCost = cp.sortCost(p.Card, p.Cost)
		g[rank] = p
	}
	pl.best[mask] = g
	pl.pend = pl.pend[:0]
}

// keep copies the scratch join n to a fresh arena node, along with whichever
// child was built in scratch for it. Cols is filled in here: costing never
// reads a candidate's own column list, and every join's output is its left
// input's columns followed by its right's.
func (pl *planner) keep(n *Plan) *Plan {
	l, r := pl.keepSort(n.Children[0]), n.Children[1]
	if r == &pl.scratch.probe {
		r = pl.arena.node(r)
	}
	k := pl.arena.join(len(l.Cols) + len(r.Cols))
	kids, cols := k.Children, k.Cols
	*k = *n
	kids[0], kids[1] = l, r
	k.Children = kids
	k.Cols = append(append(cols, l.Cols...), r.Cols...)
	return k
}

// bestOf returns the cheapest plan for the subset across all order keys;
// cost ties go to the lowest order key.
func (pl *planner) bestOf(mask uint64) *Plan {
	var best *Plan
	for _, p := range pl.best[mask] {
		if best == nil || p.Cost < best.Cost {
			best = p
		}
	}
	return best
}

// baseAccessPaths generates the single-table access plans: sequential scan,
// index scans (sargable and order-providing), and — during re-optimization —
// a scan of a matching temporary materialized view.
func (pl *planner) baseAccessPaths(ti int) []*Plan {
	q, t := pl.q, pl.tabs[ti]
	pr := &pl.opt.Model.Params
	local := pl.local[ti]
	baseRows := t.RowCount()
	fCard := pl.est.filteredBaseCard(ti)
	cols := pl.cols[ti]
	mask := uint64(1) << uint(ti)

	var paths []*Plan

	scan := &Plan{
		Op:      OpTableScan,
		Table:   ti,
		Filter:  pl.localFilter[ti],
		Cols:    cols,
		Card:    fCard,
		Cost:    baseRows*pr.ScanRow + baseRows*float64(len(local))*pr.PredEval,
		tables:  mask,
		ordered: -1,
	}
	paths = append(paths, scan)

	for _, ix := range t.BTrees {
		ord := ix.KeyOrdinal()
		keyGID := q.GlobalID(ti, ord)
		lo, hi, loInc, hiInc, used, residual := sargableBounds(local, keyGID)
		// Selectivity of the index-applied portion.
		idxSel := 1.0
		for _, p := range used {
			idxSel *= stats.Selectivity(p, pl.est.lookup())
		}
		// With no sargable predicate this is the full index scan, which
		// provides order and costs a fetch per row.
		matched := baseRows * idxSel
		paths = append(paths, &Plan{
			Op:         OpIndexScan,
			Table:      ti,
			IndexOrd:   ord,
			IndexLo:    lo,
			IndexHi:    hi,
			IndexLoInc: loInc,
			IndexHiInc: hiInc,
			Filter:     expr.Conjoin(residual...),
			Cols:       cols,
			Card:       fCard,
			Cost:       pr.AccessCost(float64(ix.Height())*pr.IndexLevel, matched, len(residual)),
			tables:     mask,
			ordered:    keyGID,
		})
	}

	if mv := pl.matchMV(mask); mv != nil {
		paths = append(paths, mv)
	}
	return paths
}

// matchMV returns an MVSCAN plan if a temporary materialized view matches
// the subset's signature (paper §2.3: intermediate results are offered to
// the optimizer as materialized views and chosen only if they win on cost).
// With no views, as on every cold compile, no signature is rendered.
func (pl *planner) matchMV(mask uint64) *Plan {
	if len(pl.opt.Views) == 0 {
		return nil
	}
	mv := pl.opt.Views[pl.est.Signature(mask)]
	if mv == nil {
		return nil
	}
	ordered := -1
	if mv.Sorted {
		ordered = mv.OrderedCol
	}
	pr := &pl.opt.Model.Params
	cost := mv.Card * pr.TempRead
	if pl.opt.ForceMVReuse {
		cost = 0 // termination heuristic: the view always wins (§7)
	}
	return &Plan{
		Op:      OpMVScan,
		MV:      mv,
		Cols:    append([]int(nil), mv.Cols...),
		Card:    mv.Card,
		Cost:    cost,
		tables:  mask,
		ordered: ordered,
	}
}

// sargableBounds extracts index bounds for the key column from the local
// predicates: the first constant comparison on each side becomes that side's
// bound, everything else stays residual.
func sargableBounds(preds []expr.Expr, keyGID int) (lo, hi expr.Expr, loInc, hiInc bool, used, residual []expr.Expr) {
	for _, p := range preds {
		c, ok := p.(*expr.Cmp)
		if !ok {
			residual = append(residual, p)
			continue
		}
		col, isCol := c.L.(*expr.ColRef)
		val, isConst := c.R.(*expr.Const)
		op := c.Op
		if !isCol || !isConst {
			if col2, ok2 := c.R.(*expr.ColRef); ok2 {
				if val2, ok3 := c.L.(*expr.Const); ok3 {
					col, val, op, isCol, isConst = col2, val2, c.Op.Flip(), true, true
				}
			}
		}
		if !isCol || !isConst || col.Pos != keyGID {
			residual = append(residual, p)
			continue
		}
		// A side already bound stays bound; the later predicate is checked as
		// a residual instead of overwriting a bound nothing would re-check.
		setLo := op == expr.EQ || op == expr.GT || op == expr.GE
		setHi := op == expr.EQ || op == expr.LT || op == expr.LE
		if !(setLo || setHi) || (setLo && lo != nil) || (setHi && hi != nil) {
			residual = append(residual, p)
			continue
		}
		if setLo {
			lo, loInc = &expr.Const{Val: val.Val}, op != expr.GT
		}
		if setHi {
			hi, hiInc = &expr.Const{Val: val.Val}, op != expr.LT
		}
		used = append(used, p)
	}
	return lo, hi, loInc, hiInc, used, residual
}

// enumerateDP runs left-deep dynamic programming over the connected subsets
// (see adjacency), smallest first; a query that is not connected as a whole
// has every subset enumerated. Every connected subset has a table whose
// removal leaves a connected subset, so each gets a group and the full set a
// plan. It sets no validity range: a group's candidates and slot decisions
// depend on the Card, Cost and order of smaller groups, never on their
// ranges, and Optimize narrows only the plan it returns (narrowChosen).
func (pl *planner) enumerateDP(full uint64) {
	adj := pl.adjacency()
	all := !connected(full, adj)
	n := popcount(full)
	for size := 2; size <= n; size++ {
		for mask := uint64(1); mask <= full; mask++ {
			if mask&full != mask || popcount(mask) != size || !all && !connected(mask, adj) {
				continue
			}
			pl.joinSplits(mask, nil)
		}
	}
}

// adjacency returns, for each table, the tables it is adjacent to in the
// join graph the DP enumerates over: those its join predicates reach, and
// every table when either of the two is estimated at one row or fewer — a
// cross product with such an input does not multiply rows, and plans choose
// it (TPC-H Q2 and Q8 join a one-row region to part by a naive NLJN). The
// estimate follows feedback, so a re-optimization's graph follows what the
// attempt observed.
func (pl *planner) adjacency() []uint64 {
	adj := slices.Clone(pl.reach)
	all := uint64(1)<<uint(len(adj)) - 1
	for ti := range adj {
		if pl.est.filteredBaseCard(ti) <= 1 {
			adj[ti] = all
			for tj := range adj {
				adj[tj] |= 1 << uint(ti)
			}
		}
	}
	return adj
}

// connected reports whether the tables of mask are connected under adj.
func connected(mask uint64, adj []uint64) bool {
	seen := mask & -mask
	for {
		next := seen
		for m := seen; m != 0; m &= m - 1 {
			next |= adj[bits.TrailingZeros64(m)] & mask
		}
		if next == seen {
			return seen == mask
		}
		seen = next
	}
}

// narrowChosen sets the validity ranges of p, the detached join tree of the
// chosen plan (paper §2.2): each join is narrowed against every join
// candidate joinSplits yields for its table subset — every split, outer plan,
// join method and order slot the enumeration costs there. The pass reads the
// arena's groups and writes only p; it counts no candidate and no build.
func (pl *planner) narrowChosen(p *Plan) {
	p.Walk(func(w *Plan) {
		if len(w.Children) == 2 {
			pl.joinSplits(w.tables, w)
		}
	})
}

// joinSplits offers the joins of every left-deep split of mask whose outer
// subset has plans — only the connected splits when there are any — for
// mask's order slots, then settles mask; or, when chosen is set, to
// narrowValidity against chosen. It looks mask's cardinality up once for
// all of them.
func (pl *planner) joinSplits(mask uint64, chosen *Plan) {
	var shapes [64]*splitShape   // by inner table, for the usable splits
	var splits, connected uint64 // inner tables of the usable splits
	for ti := range pl.q.Tables {
		bit := uint64(1) << uint(ti)
		if mask&bit == 0 {
			continue
		}
		rest := mask &^ bit
		if rest == 0 || len(pl.best[rest]) == 0 {
			continue
		}
		shapes[ti] = pl.shape(rest, ti)
		splits |= bit
		if shapes[ti].joinPred != nil {
			connected |= bit
		}
	}
	if connected != 0 {
		splits = connected // defer cartesian products unless unavoidable
	}
	outCard := pl.est.SubsetCard(mask)
	for ti := range pl.q.Tables {
		if bit := uint64(1) << uint(ti); splits&bit != 0 {
			pl.joinSubset(mask&^bit, shapes[ti], outCard, chosen)
		}
	}
	if chosen == nil {
		pl.settle(mask, outCard)
	}
}

// joinSubset offers every physical join of each plan of subset rest with
// the inner table of shape sh, for the joined subset's order slots in pend
// or, when chosen is set, to narrowValidity against chosen. outCard is the
// joined subset's estimated cardinality. The caller settles the subset
// after its last split.
func (pl *planner) joinSubset(rest uint64, sh *splitShape, outCard float64, chosen *Plan) {
	s := split{
		splitShape: sh,
		pl:         pl,
		mask:       rest | uint64(1)<<uint(sh.ti),
		outCard:    outCard,
		chosen:     chosen,
	}
	for _, outer := range pl.best[rest] {
		s.joinCandidates(outer)
	}
}

// joinPredsBetween returns the join predicates connecting subset rest with
// table ti. The result aliases predScratch and is only valid until the next
// call; callers copy anything they keep.
func (pl *planner) joinPredsBetween(rest uint64, ti int) []expr.Expr {
	bit := uint64(1) << uint(ti)
	out := pl.predScratch[:0]
	for _, jp := range pl.joinPreds {
		if jp.mask&bit != 0 && jp.mask&rest != 0 && jp.mask&^(rest|bit) == 0 {
			out = append(out, jp.pred)
		}
	}
	pl.predScratch = out
	return out
}

// predSelectivity is the estimator's memoized selectivity of p, one of
// pl.joinPreds (which the estimator's own list parallels).
func (pl *planner) predSelectivity(p expr.Expr) float64 {
	for i, jp := range pl.joinPreds {
		if jp.pred == p {
			return pl.est.joinSelectivity(i)
		}
	}
	panic("optimizer: predSelectivity of a predicate outside joinPreds")
}

// equiPair is one hash/merge-joinable equality between the outer subset and
// the inner table.
type equiPair struct {
	pred       expr.Expr
	outerCol   int // global id on the outer side
	innerCol   int // global id on the inner (single-table) side
	innerTable int
}

func (pl *planner) equiPairs(preds []expr.Expr, rest uint64, ti int) (pairs []equiPair, residual []expr.Expr) {
	for _, p := range preds {
		l, r, ok := expr.EquiJoinColumns(p)
		if !ok {
			residual = append(residual, p)
			continue
		}
		lt, rt := pl.q.TableOf(l), pl.q.TableOf(r)
		switch {
		case lt == ti && rest&(1<<uint(rt)) != 0:
			pairs = append(pairs, equiPair{pred: p, outerCol: r, innerCol: l, innerTable: ti})
		case rt == ti && rest&(1<<uint(lt)) != 0:
			pairs = append(pairs, equiPair{pred: p, outerCol: l, innerCol: r, innerTable: ti})
		default:
			residual = append(residual, p)
		}
	}
	return pairs, residual
}

// split is one visit of a split, outer subset ⋈ table ti: its shape and
// the fields that depend on the whole joined subset.
type split struct {
	*splitShape
	pl      *planner
	mask    uint64  // outer subset plus ti
	outCard float64 // estimated join output cardinality
	chosen  *Plan   // the chosen join narrowChosen narrows, or nil
}

// splitKey identifies a split shape: the inner table ti and the outer
// subset restricted to reach[ti].
type splitKey struct {
	ti    int
	outer uint64
}

// splitShape is everything the physical joins of (outer subset ⋈ table ti)
// share across the subset's outer plans: the connecting predicates cut into
// each join method's conjunctions and key columns, and the inner-side plans.
// All of it is a function of the split's key. A connecting predicate touches
// ti and has its other tables in the outer subset; those tables lie in
// reach[ti], so they are in the subset exactly when they are in its
// intersection with reach[ti], and an equi pair's outer column is one of
// them. The inner plans depend on ti alone, and the index probe costs on ti
// and the probed predicate. So one shape serves every outer subset with the
// same key, for the whole compile. Every candidate built from a shape points
// at the same expressions, key slices and merge inner (see the immutability
// contract on Plan); a merge inner SORT is an arena node nothing writes after
// deriveShape, and detach copies it out with the chosen tree.
type splitShape struct {
	ti    int
	inner *Plan // cheapest access path of ti

	joinPred expr.Expr // conjunction of all connecting predicates; nil for a cartesian split

	// Hash join: one key column per equi pair, non-equi predicates residual.
	probeKeys, buildKeys []int // outer-side / ti-side key columns
	hashFilter           expr.Expr

	indexJoins []indexJoin

	// Merge join on the first equi pair; every other predicate is residual.
	mergeLeft, mergeRight []int
	mergeFilter           expr.Expr
	mergeInner            *Plan // ti ordered on the merge key: an index scan, else a SORT over inner
}

// indexJoin is one index nested-loop alternative: an equi pair whose ti-side
// column has a B-tree.
type indexJoin struct {
	lookupCol int       // outer-side column supplying the probe key
	ord       int       // ti-side column ordinal
	probeCost float64   // per probe: the descent, and a fetch and filter of every row the key matches
	filter    expr.Expr // every connecting predicate but the probed pair
}

// shape returns the shape of the split rest ⋈ table ti, derived on the
// first visit of its key.
func (pl *planner) shape(rest uint64, ti int) *splitShape {
	k := splitKey{ti: ti, outer: rest & pl.reach[ti]}
	sh := pl.shapes[k]
	if sh == nil {
		sh = pl.deriveShape(k.outer, ti)
		pl.shapes[k] = sh
	}
	return sh
}

// deriveShape derives the shape of the split rest ⋈ table ti, leaving out
// the parts a disabled join method would need.
func (pl *planner) deriveShape(rest uint64, ti int) *splitShape {
	pl.derived++
	o := pl.opt
	bit := uint64(1) << uint(ti)
	preds := pl.joinPredsBetween(rest, ti)
	pairs, nonEqui := pl.equiPairs(preds, rest, ti)
	s := &splitShape{
		ti:       ti,
		inner:    pl.bestOf(bit),
		joinPred: expr.Conjoin(preds...),
	}
	if len(pairs) == 0 {
		return s
	}
	// residualWithout conjoins the non-equi predicates with every equi pair
	// but pairs[skip], in that order.
	residualWithout := func(skip int) expr.Expr {
		residual := append([]expr.Expr(nil), nonEqui...)
		for i, pr := range pairs {
			if i != skip {
				residual = append(residual, pr.pred)
			}
		}
		return expr.Conjoin(residual...)
	}
	if !o.DisableNLJN && !o.DisableIndexJoin {
		cp := &o.Model.Params
		for i, pr := range pairs {
			ord := pl.q.OrdinalOf(pr.innerCol)
			if ix := pl.tabs[ti].BTreeOn(ord); ix != nil {
				// The probed key alone matches fetched rows per probe; the
				// inner's local predicates are all residual.
				fetched := pl.est.baseTableCard(ti) * pl.predSelectivity(pr.pred)
				s.indexJoins = append(s.indexJoins, indexJoin{
					lookupCol: pr.outerCol,
					ord:       ord,
					probeCost: cp.AccessCost(float64(ix.Height())*cp.IndexLevel, fetched, len(pl.local[ti])),
					filter:    residualWithout(i),
				})
			}
		}
	}
	if !o.DisableHSJN {
		s.probeKeys = make([]int, len(pairs))
		s.buildKeys = make([]int, len(pairs))
		for i, pr := range pairs {
			s.probeKeys[i] = pr.outerCol
			s.buildKeys[i] = pr.innerCol
		}
		s.hashFilter = expr.Conjoin(nonEqui...)
	}
	if !o.DisableMGJN {
		pr := pairs[0]
		s.mergeLeft, s.mergeRight = []int{pr.outerCol}, []int{pr.innerCol}
		s.mergeFilter = residualWithout(0)
		// An inner plan already ordered on the key (an index scan) avoids
		// its sort.
		for _, ip := range pl.best[bit] {
			if ip.ordered == pr.innerCol {
				s.mergeInner = ip
				break
			}
		}
		if s.mergeInner == nil {
			s.mergeInner = pl.keepSort(pl.sorted(s.inner, pr.innerCol))
		}
	}
	return s
}

// joinCandidates offers every physical join of outer ⋈ ti the knobs allow:
// naive NLJN, index NLJN, hash join in both build directions, and merge join
// with sort enforcers. Each candidate is costed from its inputs' cards and
// costs — a merge join over an unordered outer reads the outer's SORT cost,
// computed once when the outer entered its group — and offered as scalars;
// nothing is built for it here.
func (s *split) joinCandidates(outer *Plan) {
	o := s.pl.opt
	pr := &o.Model.Params
	in := s.inner
	if !o.DisableNLJN {
		// Naive nested-loop join: always applicable (handles non-equi and
		// cartesian joins), rescans the inner per outer row.
		s.offer(outer, nil, OpNLJN, false, outer.ordered,
			pr.nljnCost(outer.Card, in.Card, outer.Cost, in.Cost, s.outCard))
		for i := range s.indexJoins {
			ij := &s.indexJoins[i]
			s.offer(outer, ij, OpNLJN, false, outer.ordered,
				pr.indexNLJNCost(outer.Card, outer.Cost, ij.probeCost, s.outCard))
		}
	}
	if s.probeKeys != nil {
		// Build on the single table, probe with the outer subset.
		s.offer(outer, nil, OpHSJN, false, outer.ordered,
			pr.hsjnCost(outer.Card, in.Card, outer.Cost, in.Cost, s.outCard, len(in.Cols)))
		// Build on the outer subset, probe with the table.
		s.offer(outer, nil, OpHSJN, true, in.ordered,
			pr.hsjnCost(in.Card, outer.Card, in.Cost, outer.Cost, s.outCard, len(outer.Cols)))
	}
	if mi := s.mergeInner; mi != nil {
		key, lCost := s.mergeLeft[0], outer.Cost
		if outer.ordered != key {
			lCost = outer.sortCost // build puts a SORT under it
		}
		s.offer(outer, nil, OpMGJN, false, key,
			pr.mgjnCost(outer.Card, mi.Card, lCost, mi.Cost, s.outCard))
	}
}

// offer takes one join candidate of the split as scalars: its outer plan,
// probed index (index NLJN), operator, build side (flip: a hash join built
// on the outer), order key and cost. It counts the candidate and asks
// planner.record whether it takes its order slot; only then is its recipe
// written, into pend. When the split narrows a chosen join, offer instead
// builds the candidate and narrows chosen against it.
func (s *split) offer(outer *Plan, ij *indexJoin, op OpKind, flip bool, ordered int, cost float64) {
	pl := s.pl
	if s.chosen != nil {
		pl.narrowings++
		r := recipe{outer: outer, ij: ij, op: op, flip: flip, ordered: ordered, cost: cost}
		pl.opt.Model.narrowValidity(s.chosen, s.build(&r))
		return
	}
	if r := pl.record(ordered, cost); r != nil {
		*r = recipe{shape: s.splitShape, outer: outer, ij: ij, op: op, flip: flip, ordered: ordered, cost: cost}
	}
}

// build builds r, a join of the split, in the planner's scratch node and
// returns it. Every NLJN carries the split's join predicate; r.ij, when set,
// makes it an index NLJN. Only the fields a join sets are written — the
// scratch node never holds anything else — so no Plan is copied per build.
func (s *split) build(r *recipe) *Plan {
	pl := s.pl
	sc := &pl.scratch
	n := &sc.node
	l, in := r.outer, s.inner
	n.Op, n.ordered, n.Card, n.Cost, n.tables = r.op, r.ordered, s.outCard, r.cost, s.mask
	n.JoinPred, n.IndexJoin, n.LookupCol, n.EquiLeft, n.EquiRight = nil, false, 0, nil, nil
	switch r.op {
	case OpNLJN:
		n.Filter, n.JoinPred = s.joinPred, s.joinPred
		if ij := r.ij; ij != nil {
			n.Filter, n.IndexJoin, n.LookupCol = ij.filter, true, ij.lookupCol
			in = s.indexProbe(ij, l)
		}
	case OpHSJN:
		n.Filter, n.EquiLeft, n.EquiRight = s.hashFilter, s.probeKeys, s.buildKeys
		if r.flip {
			l, in = in, l
			n.EquiLeft, n.EquiRight = s.buildKeys, s.probeKeys
		}
	default: // OpMGJN
		n.Filter, n.EquiLeft, n.EquiRight = s.mergeFilter, s.mergeLeft, s.mergeRight
		l, in = pl.sorted(l, r.ordered), s.mergeInner
	}
	sc.kids = [2]*Plan{l, in}
	n.Children = sc.kids[:]
	return n
}

// indexProbe fills the scratch probe node with the parameterized index-probe
// inner of an index NLJN under outer: Card is the expected matches per probe
// — the join's output, after the residual join predicates and the inner's
// local ones — and Cost the per-probe cost, which pays for every row the
// probed key fetches before those predicates see it.
func (s *split) indexProbe(ij *indexJoin, outer *Plan) *Plan {
	pl := s.pl
	ti := s.ti
	perProbe := s.outCard / math.Max(outer.Card, 1e-9)
	if perProbe < 1e-6 {
		perProbe = 1e-6
	}
	// Set field by field, as in build: a Plan literal would zero and copy the
	// whole node per candidate. No other field of the probe is ever written.
	p := &pl.scratch.probe
	p.Op, p.Table, p.IndexOrd = OpIndexScan, ti, ij.ord
	p.Filter, p.Cols = pl.localFilter[ti], pl.cols[ti]
	p.Card = perProbe
	p.Cost = ij.probeCost
	p.tables, p.ordered = uint64(1)<<uint(ti), -1
	return p
}

// sorted returns p itself if it is already ordered on col, else the scratch
// SORT enforcer over it, costed. The scratch node is overwritten by the next
// call; keepSort makes it permanent.
func (pl *planner) sorted(p *Plan, col int) *Plan {
	if p.ordered == col {
		return p
	}
	sc := &pl.scratch
	sc.sortKid[0] = p
	sc.sortKey[0] = SortKey{Col: col}
	// Set field by field, as in build; no other field of it is ever written.
	s := &sc.sort
	s.Op, s.Children, s.SortKeys = OpSort, sc.sortKid[:], sc.sortKey[:]
	s.Cols, s.Card, s.tables, s.ordered = p.Cols, p.Card, p.tables, col
	s.Cost = pl.opt.Model.Params.sortCost(p.Card, p.Cost)
	return s
}

// keepSort returns p itself unless it is the scratch SORT enforcer, which is
// copied to the arena.
func (pl *planner) keepSort(p *Plan) *Plan {
	if p != &pl.scratch.sort {
		return p
	}
	a := pl.arena
	h := a.node(p)
	h.Children = a.kids.take(1)
	h.Children[0] = p.Children[0]
	h.SortKeys = a.keys.take(1)
	h.SortKeys[0] = p.SortKeys[0]
	return h
}

// finish layers aggregation, ordering, projection and limit over the join
// plan.
func (pl *planner) finish(join *Plan) (*Plan, error) {
	q := pl.q
	m := &pl.opt.Model
	top := join
	hasAgg := len(q.GroupBy) > 0
	for _, it := range q.Select {
		if it.Agg != logical.AggNone {
			hasAgg = true
		}
	}
	if hasAgg {
		var groupGids []int
		for _, g := range q.GroupBy {
			c, ok := g.(*expr.ColRef)
			if !ok {
				return nil, fmt.Errorf("optimizer: GROUP BY supports only column references, got %s", g)
			}
			groupGids = append(groupGids, c.Pos)
		}
		agg := &Plan{
			Op:       OpHashAgg,
			Children: []*Plan{top},
			GroupBy:  groupGids,
			Items:    q.Select,
			Cols:     pl.outputIDs(len(q.Select)),
			Card:     pl.est.groupCount(groupGids, top.Card),
			tables:   top.tables,
			ordered:  -1,
		}
		m.finishCosting(agg)
		top = agg
	} else {
		proj := &Plan{
			Op:       OpProject,
			Children: []*Plan{top},
			Items:    q.Select,
			Cols:     pl.outputIDs(len(q.Select)),
			Card:     top.Card,
			tables:   top.tables,
			ordered:  -1,
		}
		m.finishCosting(proj)
		top = proj
	}
	if q.Distinct {
		items := make([]logical.SelectItem, len(top.Cols))
		for i, c := range top.Cols {
			items[i] = logical.SelectItem{E: &expr.ColRef{Pos: c}, Name: q.Select[i].Name}
		}
		dedup := &Plan{
			Op:       OpHashAgg,
			Children: []*Plan{top},
			GroupBy:  append([]int(nil), top.Cols...),
			Items:    items,
			Cols:     append([]int(nil), top.Cols...),
			Card:     top.Card, // upper bound; duplicates unknown a priori
			tables:   top.tables,
			ordered:  -1,
		}
		m.finishCosting(dedup)
		top = dedup
	}
	if len(q.OrderBy) > 0 {
		keys, err := pl.orderKeys(top)
		if err != nil {
			return nil, err
		}
		srt := &Plan{
			Op:       OpSort,
			Children: []*Plan{top},
			SortKeys: keys,
			Cols:     top.Cols,
			Card:     top.Card,
			tables:   top.tables,
			ordered:  keys[0].Col,
		}
		m.finishCosting(srt)
		top = srt
	}
	if q.Limit > 0 {
		top.Limit = q.Limit
	}
	return top, nil
}

// outputIDs allocates synthetic global ids for the n output columns of the
// final aggregation/projection, placed above the base-column id space.
func (pl *planner) outputIDs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = pl.q.NumColumns() + i
	}
	return out
}

// orderKeys maps ORDER BY items onto the output columns by matching each
// item against the select list.
func (pl *planner) orderKeys(top *Plan) ([]SortKey, error) {
	q := pl.q
	keys := make([]SortKey, 0, len(q.OrderBy))
	for _, o := range q.OrderBy {
		found := -1
		for j, it := range q.Select {
			if it.E != nil && it.Agg == logical.AggNone && it.E.String() == o.E.String() {
				found = j
				break
			}
			if c, ok := o.E.(*expr.ColRef); ok && it.Name != "" && it.Name == c.Name {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("optimizer: ORDER BY key %s must appear in the select list", o.E)
		}
		keys = append(keys, SortKey{Col: q.NumColumns() + found, Desc: o.Desc})
	}
	return keys, nil
}
