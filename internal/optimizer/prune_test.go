package optimizer

import (
	"math"
	"testing"
)

// sameCost is %b-equality: the same bits, or both NaN.
func sameCost(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkOwnCosts reports every node under p, visiting each once across calls
// that share seen, whose Cost is not %b-equal to Recost at its own children's
// cardinalities and costs.
func checkOwnCosts(t *testing.T, m *CostModel, p *Plan, seen map[*Plan]bool, where string) {
	t.Helper()
	if seen[p] {
		return
	}
	seen[p] = true
	cc, cs := make([]float64, len(p.Children)), make([]float64, len(p.Children))
	for i, c := range p.Children {
		cc[i], cs[i] = c.Card, c.Cost
		checkOwnCosts(t, m, c, seen, where)
	}
	if want := m.Recost(p, cc, cs); !sameCost(p.Cost, want) {
		t.Errorf("%s: %s tabs=%b ord=%d cost %b, Recost at its own inputs %b", where, p.Op, p.tables, p.ordered, p.Cost, want)
	}
}

// joinStep is one subset joinOnce enumerates: the joins of outer ⋈ s's
// table.
type joinStep struct {
	s     split
	outer *Plan
}

// joinOnce enumerates each step's subset on one planner, in turn, as the
// enumeration does: the outer enters its group through addPath, as an access
// path does, its joins are offered, and the subset is settled. When mv is
// set, the last subset's signature names it, so settle offers an MVSCAN of
// it after the joins; otherwise the planner knows of no view. The slot index
// is sized as newPlanner sizes it for a query of five columns, the ids 0–4
// the cases use. joinOnce fails the test if a settle leaves an index entry
// set, and returns the last subset's group.
func joinOnce(t *testing.T, o *Optimizer, steps []joinStep, mv *MatView) group {
	t.Helper()
	est := &estimator{subsets: map[uint64]float64{}, sigs: map[uint64]string{}}
	pl := &planner{opt: o, est: est, best: map[uint64]group{}, slots: make([]int32, 5+1), arena: new(arena)}
	last := steps[len(steps)-1].s.mask
	if mv != nil {
		o.Views = map[string]*MatView{mv.Signature: mv}
		est.sigs[last] = mv.Signature
	}
	for _, st := range steps {
		est.subsets[st.s.mask] = st.s.outCard
		pl.addPath(st.outer)
		st.s.pl = pl
		st.s.joinCandidates(st.outer)
		pl.settle(st.s.mask, st.s.outCard)
		for k, i := range pl.slots {
			if i != 0 {
				t.Fatalf("settling subset %b left order key %d's slot index at %d", st.s.mask, k-1, i)
			}
		}
	}
	return pl.best[last]
}

// TestJoinCostMatchesRecost: the DP costs each join candidate from scalars
// before it builds it, and Recost evaluates the same formulas at perturbed
// cardinalities. At a node's own input cardinalities the two must agree to
// the bit, or pruning a candidate by its scalar cost could differ from
// pruning it by its built cost. The table cases drive one split's candidates
// at the edges of the formulas; the workloads check every node of every DP
// group, and of every returned plan, under compileConfigs.
func TestJoinCostMatchesRecost(t *testing.T) {
	leaf := func(card, cost float64, ncols, ordered int) *Plan {
		return &Plan{Op: OpTableScan, Cols: make([]int, ncols), Card: card, Cost: cost, tables: 0b01, ordered: ordered}
	}
	inner := func(card, cost float64, ncols, ordered int) *Plan {
		p := leaf(card, cost, ncols, ordered)
		p.tables = 0b10
		return p
	}
	hashSplit := func(outCard float64, in *Plan) split {
		return split{mask: 0b11, outCard: outCard, splitShape: &splitShape{ti: 1, inner: in, probeKeys: []int{0}, buildKeys: []int{4}}}
	}
	mergeSplit := split{mask: 0b11, outCard: 300, splitShape: &splitShape{ti: 1, inner: inner(200, 200, 1, -1),
		mergeLeft: []int{3}, mergeRight: []int{4}, mergeInner: inner(200, 450, 1, 4)}}
	cases := []struct {
		name  string
		cfg   func(*Optimizer)
		prior []joinStep // subsets enumerated and settled first, on the same planner
		s     split
		outer *Plan
		mv    *MatView // a view of the subset, offered after its joins
		// check is what the case exists for, beyond matching Recost.
		check func(t *testing.T, m *CostModel, g group)
	}{
		{
			name:  "hash build over MemoryBytes",
			cfg:   func(o *Optimizer) { o.DisableNLJN = true },
			s:     hashSplit(5e4, inner(1e5, 1e5, 2, 4)),
			outer: leaf(1e5, 3e5, 4, -1),
			check: func(t *testing.T, m *CostModel, g group) {
				if len(g) != 2 {
					t.Fatalf("%d plans, want both build directions", len(g))
				}
				for _, p := range g {
					b := p.Children[1]
					if st := HashStages(b.Card, len(b.Cols), m.Params.MemoryBytes); st <= 1 {
						t.Errorf("build of %v rows × %d columns takes %v stages, want > 1", b.Card, len(b.Cols), st)
					}
				}
			},
		},
		{
			name:  "naive NLJN over an empty outer",
			cfg:   func(*Optimizer) {},
			s:     split{mask: 0b11, outCard: 0, splitShape: &splitShape{ti: 1, inner: inner(50, 70, 1, -1)}},
			outer: leaf(0, 10, 1, -1),
			check: func(t *testing.T, m *CostModel, g group) {
				// The model charges one scan of the inner even when no
				// outer row arrives; costing first must not change that.
				if len(g) != 1 || g[0].Op != OpNLJN || g[0].Cost != 10+70 {
					t.Errorf("want one NLJN costing one inner scan (80), got %d plans, cost %v", len(g), g[0].Cost)
				}
			},
		},
		{
			name:  "merge join over an outer in key order",
			cfg:   func(o *Optimizer) { o.DisableNLJN = true },
			s:     mergeSplit,
			outer: leaf(100, 400, 2, 3),
			check: func(t *testing.T, m *CostModel, g group) {
				if len(g) != 1 || g[0].Op != OpMGJN || g[0].Children[0].Op == OpSort {
					t.Errorf("want one MGJN straight over the ordered outer, got %d plans, %s", len(g), g[0].Children[0].Op)
				}
			},
		},
		{
			name:  "merge join over a sorted outer",
			cfg:   func(o *Optimizer) { o.DisableNLJN = true },
			s:     mergeSplit,
			outer: leaf(100, 400, 2, -1),
			check: func(t *testing.T, m *CostModel, g group) {
				if len(g) != 1 || g[0].Children[0].Op != OpSort {
					t.Errorf("want one MGJN over a SORT, got %d plans", len(g))
				}
			},
		},
		{
			name:  "infinite outer cardinality",
			cfg:   func(*Optimizer) {},
			s:     hashSplit(20, inner(30, 30, 1, 4)),
			outer: leaf(math.Inf(1), 100, 1, -1),
			check: func(t *testing.T, m *CostModel, g group) {
				if len(g) != 2 {
					t.Errorf("%d plans, want one per slot", len(g))
				}
			},
		},
		{
			name:  "equal costs for one slot",
			cfg:   func(o *Optimizer) { o.DisableNLJN = true },
			s:     hashSplit(50, inner(100, 300, 2, -1)),
			outer: leaf(100, 300, 2, -1),
			check: func(t *testing.T, m *CostModel, g group) {
				// Both build directions cost the same bits for the
				// unordered slot: the one offered first, probing with the
				// outer, keeps it.
				if len(g) != 1 || g[0].Op != OpHSJN || g[0].Children[0].tables != 0b01 {
					t.Errorf("want one HSJN probing with the outer, got %d plans, probe side tabs=%b", len(g), g[0].Children[0].tables)
				}
			},
		},
		{
			name: "NaN costs take only vacant slots",
			cfg:  func(*Optimizer) {},
			s: split{mask: 0b11, outCard: 300, splitShape: &splitShape{ti: 1, inner: inner(50, 70, 1, -1),
				indexJoins: []indexJoin{{lookupCol: 3, ord: 0, probeCost: math.NaN()}},
				mergeLeft:  []int{3}, mergeRight: []int{4}, mergeInner: inner(200, math.NaN(), 1, 4)}},
			outer: leaf(100, 400, 2, -1),
			check: func(t *testing.T, m *CostModel, g group) {
				// The naive NLJN holds the unordered slot against the
				// NaN-costed index NLJN offered after it; the NaN-costed
				// merge join takes the vacant merge-key slot.
				if len(g) != 2 || g[0].Op != OpNLJN || g[0].IndexJoin || math.IsNaN(g[0].Cost) {
					t.Fatalf("want the naive NLJN in the unordered slot, got %d plans, %s", len(g), g[0].Op)
				}
				if g[1].Op != OpMGJN || !math.IsNaN(g[1].Cost) {
					t.Errorf("want the NaN-costed MGJN in the merge-key slot, got %s cost %v", g[1].Op, g[1].Cost)
				}
			},
		},
		{
			name:  "NaN inner cardinality",
			cfg:   func(*Optimizer) {},
			s:     hashSplit(20, inner(math.NaN(), 30, 1, 4)),
			outer: leaf(40, 100, 1, -1),
			check: func(t *testing.T, m *CostModel, g group) {
				if len(g) != 2 {
					t.Errorf("%d plans, want one per slot", len(g))
				}
			},
		},
		{
			name:  "MVSCAN ordered past the column ids",
			cfg:   func(o *Optimizer) { o.DisableNLJN = true },
			s:     hashSplit(50, inner(100, 300, 2, 4)),
			outer: leaf(100, 300, 2, -1),
			// Ordered on column id 9, past the index newPlanner sizes for
			// five columns, as a view of an output column can be.
			mv: &MatView{Signature: "mv", Cols: []int{0, 1, 2, 3}, Card: 5, Sorted: true, OrderedCol: 9},
			check: func(t *testing.T, m *CostModel, g group) {
				if len(g) != 3 || g[0].ordered != -1 || g[1].ordered != 4 {
					t.Fatalf("want the two hash joins' slots (-1, 4) before the view's, got %d plans", len(g))
				}
				if g[2].Op != OpMVScan || g[2].ordered != 9 {
					t.Errorf("want the MVSCAN ordered on 9 last, got %s ordered on %d", g[2].Op, g[2].ordered)
				}
			},
		},
		{
			name: "subsets settled back to back",
			cfg:  func(*Optimizer) {},
			// The first subset's slots -1 and 3 are taken by cheap joins and
			// settled; every candidate of the second costs more than they did.
			prior: []joinStep{{mergeSplit, leaf(100, 400, 2, -1)}},
			s:     split{mask: 0b110, outCard: 50, splitShape: hashSplit(50, inner(100, 300, 2, 4)).splitShape},
			outer: func() *Plan {
				p := leaf(100, 5000, 2, -1)
				p.tables = 0b100
				return p
			}(),
			check: func(t *testing.T, m *CostModel, g group) {
				// The second subset's first candidate for the unordered key
				// finds its slot vacant, not the first subset's winner.
				if len(g) != 2 || g[0].ordered != -1 || g[1].ordered != 4 {
					t.Fatalf("want the second subset's slots -1 and 4, got %d plans", len(g))
				}
				for _, p := range g {
					if p.tables != 0b110 || p.Cost < 5000 {
						t.Errorf("slot %d holds tabs=%b cost %v, want a join of the second subset", p.ordered, p.tables, p.Cost)
					}
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := New(nil)
			c.cfg(o)
			g := joinOnce(t, o, append(c.prior, joinStep{c.s, c.outer}), c.mv)
			if len(g) == 0 {
				t.Fatal("no candidate was built")
			}
			seen := map[*Plan]bool{}
			for _, p := range g {
				checkOwnCosts(t, &o.Model, p, seen, c.name)
			}
			c.check(t, &o.Model, g)
		})
	}

	for _, w := range compileWorkloads(t) {
		cat := w.cat
		for _, c := range compileConfigs {
			for _, nq := range w.queries {
				o := c.optimizer(t, cat, nq.q)
				where := c.name + " " + nq.name
				pl, err := o.newPlanner(nq.q)
				if err != nil {
					t.Fatal(err)
				}
				if n := len(nq.q.Tables); n > 1 {
					pl.enumerateDP(uint64(1)<<uint(n) - 1)
				}
				seen := map[*Plan]bool{}
				for _, g := range pl.best {
					for _, p := range g {
						checkOwnCosts(t, &o.Model, p, seen, where)
					}
				}
				pl.arena.release()
				plan, err := o.Optimize(nq.q)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				checkOwnCosts(t, &o.Model, plan, map[*Plan]bool{}, where+" (returned plan)")
			}
		}
	}
}

// TestBuiltCandidateBudget pins one build per surviving slot: the
// enumeration records each subset's slot winners as recipes and builds them
// once the subset is complete, so over every workload query, under
// compileConfigs and the greedy chain, the joins built must equal the join
// plans held by the groups of two or more tables. On the widest DMV compile
// that is 1,435 joins of the 20,014 candidates costed under DP, and 42 of
// 210 under the greedy chain; the ceilings are absolute, as the narrowing
// budget's is. Building each candidate that took its slot when it was
// offered built about 30 and 38 of every 100.
func TestBuiltCandidateBudget(t *testing.T) {
	for _, w := range compileWorkloads(t) {
		cat := w.cat
		for _, c := range withGreedy() {
			for _, nq := range w.queries {
				o := c.optimizer(t, cat, nq.q)
				pl, _ := chosenJoins(t, o, nq.q)
				joins := 0
				for mask, g := range pl.best {
					if popcount(mask) < 2 {
						continue
					}
					for _, p := range g {
						if len(p.Children) == 2 {
							joins++
						}
					}
				}
				if pl.built != joins {
					t.Errorf("%s %s: %d joins built, the groups hold %d", c.name, nq.name, pl.built, joins)
				}
				pl.arena.release()
			}
		}
	}

	cat, q := widestDMV(t)
	for _, c := range []struct {
		order   JoinOrder
		ceiling int // joins built
	}{{JoinOrderAuto, 1_800}, {JoinOrderGreedy, 55}} {
		o := New(cat)
		o.JoinOrder = c.order
		pl, _ := chosenJoins(t, o, q)
		pl.arena.release()
		t.Logf("join order %d: %d of %d candidates built (%.1f %%)", c.order, pl.built, pl.candidates, 100*float64(pl.built)/float64(pl.candidates))
		if pl.built == 0 {
			t.Errorf("join order %d: no candidate built at all", c.order)
		}
		if pl.built > c.ceiling {
			t.Errorf("join order %d: %d of %d candidates built, budget %d", c.order, pl.built, pl.candidates, c.ceiling)
		}
	}
}
