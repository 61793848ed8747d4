package optimizer

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/logical"
	"repro/internal/stats"
	"repro/internal/tpch"
)

// eagerOptimize is the reference enumerateDP replaced: expandSubset over
// every subset with narrowing on, so every order slot's winner of every group
// carries ranges. It returns the finished plan and the candidates costed.
func eagerOptimize(t *testing.T, o *Optimizer, q *logical.Query) (*Plan, int) {
	t.Helper()
	pl, err := o.newPlanner(q)
	if err != nil {
		t.Fatal(err)
	}
	n := len(q.Tables)
	full := uint64(1)<<uint(n) - 1
	for size := 2; size <= n; size++ {
		for mask := uint64(1); mask <= full; mask++ {
			if popcount(mask) == size {
				pl.expandSubset(mask)
			}
		}
	}
	plan, err := pl.finish(pl.bestOf(full))
	if err != nil {
		t.Fatal(err)
	}
	if o.Model.Params.Workers > 1 {
		plan = o.parallelize(plan, false)
	}
	return plan, pl.candidates
}

// dumpPlan renders every field of the tree, floats in %b, so that a one-ulp
// difference in a cost, a cardinality or a validity bound changes the text.
func dumpPlan(b *strings.Builder, p *Plan, depth int) {
	fmt.Fprintf(b, "%*s%s t=%d ix=%d lo=%v%t hi=%v%t ij=%t lk=%d el=%v er=%v gb=%v sk=%v lim=%d ex=%s/%d cols=%v tabs=%b ord=%d card=%b cost=%b filter=%v jp=%v",
		2*depth, "", p.Op, p.Table, p.IndexOrd, p.IndexLo, p.IndexLoInc, p.IndexHi, p.IndexHiInc,
		p.IndexJoin, p.LookupCol, p.EquiLeft, p.EquiRight, p.GroupBy, p.SortKeys, p.Limit,
		p.ExKind, p.DOP, p.Cols, p.tables, p.ordered, p.Card, p.Cost, p.Filter, p.JoinPred)
	if p.MV != nil {
		fmt.Fprintf(b, " mv=%s", p.MV.Signature)
	}
	for i := range p.Children {
		v := p.EdgeValidity(i)
		fmt.Fprintf(b, " v%d=[%b,%b]", i, v.Lo, v.Hi)
	}
	b.WriteByte('\n')
	for _, c := range p.Children {
		dumpPlan(b, c, depth+1)
	}
}

func planText(p *Plan) string {
	var b strings.Builder
	dumpPlan(&b, p, 0)
	return b.String()
}

type namedQuery struct {
	name string
	q    *logical.Query
}

type lazyWorkload struct {
	cat     *catalog.Catalog
	queries []namedQuery
}

// lazyWorkloads loads the DMV and TPC-H databases the identity goldens use,
// at sizes that keep the eager reference quick.
func lazyWorkloads(t *testing.T) []lazyWorkload {
	t.Helper()
	dcat, dqs := smallDMV(t)
	var dmvQs []namedQuery
	for _, qi := range dqs {
		dmvQs = append(dmvQs, namedQuery{qi.Name, qi.Query})
	}
	tcat := catalog.New()
	if err := tpch.Load(tcat, tpch.Config{ScaleFactor: 0.002, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	tqs, err := tpch.Queries(tcat)
	if err != nil {
		t.Fatal(err)
	}
	var tpchQs []namedQuery
	for name, q := range tqs {
		tpchQs = append(tpchQs, namedQuery{name, q})
	}
	sort.Slice(tpchQs, func(i, j int) bool { return tpchQs[i].name < tpchQs[j].name })
	return []lazyWorkload{{dcat, dmvQs}, {tcat, tpchQs}}
}

// reoptState puts the catalog and a feedback cache into the state a violated
// attempt of q leaves behind: an actual for every base table and join subset
// of the cold plan, far from its estimate, and the lowest join's result
// registered as a temp MV.
func reoptState(t *testing.T, cat *catalog.Catalog, q *logical.Query) *stats.Feedback {
	t.Helper()
	cold, err := New(cat).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	fb := stats.NewFeedback()
	var lowest *Plan
	cold.Walk(func(p *Plan) {
		if len(p.Children) == 1 {
			return // enforcers and the operators above the join tree
		}
		fb.Record(Signature(q, p.tables), 7*p.Card+3)
		if len(p.Children) == 2 && (lowest == nil || popcount(p.tables) < popcount(lowest.tables)) {
			lowest = p
		}
	})
	if lowest != nil {
		cat.RegisterView(&catalog.MatView{
			Signature: Signature(q, lowest.tables),
			Cols:      lowest.Cols,
			Card:      7*lowest.Card + 3,
		})
	}
	return fb
}

// compileConfigs are the optimizer configurations the enumeration tests
// compile the workloads under; reopt compiles from reoptState.
var compileConfigs = []struct {
	name  string
	reopt bool
	cfg   func(*Optimizer)
}{
	{"default", false, func(*Optimizer) {}},
	{"noHSJN", false, func(o *Optimizer) { o.DisableHSJN = true }},
	{"workers2", false, func(o *Optimizer) { o.Model.Params.Workers = 2 }},
	{"reopt", true, func(*Optimizer) {}},
}

// TestLazyRangesMatchEager is the equality prune-then-narrow rests on: the
// plan Optimize returns — pruned with narrowing off, then only its own groups
// rebuilt with narrowing on — equals, in every field and every validity bound,
// the plan of an enumeration that narrows every group as it prunes, and both
// cost the same number of candidates.
func TestLazyRangesMatchEager(t *testing.T) {
	for _, w := range lazyWorkloads(t) {
		cat, queries := w.cat, w.queries
		for _, c := range compileConfigs {
			bounded, mvScans := 0, 0
			for _, nq := range queries {
				var fb *stats.Feedback
				if c.reopt {
					fb = reoptState(t, cat, nq.q)
				}
				lazy, eager := New(cat), New(cat)
				for _, o := range []*Optimizer{lazy, eager} {
					c.cfg(o)
					o.Feedback = fb
				}
				got, err := lazy.Optimize(nq.q)
				if err != nil {
					t.Fatalf("%s %s: %v", c.name, nq.name, err)
				}
				want, wantCandidates := eagerOptimize(t, eager, nq.q)
				cat.DropViews()
				if g, w := planText(got), planText(want); g != w {
					t.Fatalf("%s %s: lazily narrowed plan differs from the eager reference\nlazy:\n%s\neager:\n%s", c.name, nq.name, g, w)
				}
				if lazy.EnumeratedCandidates != wantCandidates {
					t.Errorf("%s %s: EnumeratedCandidates %d, eager reference %d",
						c.name, nq.name, lazy.EnumeratedCandidates, wantCandidates)
				}
				got.Walk(func(p *Plan) {
					for i := range p.Children {
						if p.EdgeValidity(i).Bounded() {
							bounded++
						}
					}
				})
				mvScans += got.Count(OpMVScan)
			}
			if bounded == 0 {
				t.Errorf("%s: no bounded validity range in %d plans; the comparison is vacuous", c.name, len(queries))
			}
			if c.reopt && mvScans == 0 {
				t.Errorf("%s: no plan reused the registered temp MV", c.name)
			}
		}
	}
}

// TestNarrowingBudget is the deterministic tripwire for eager narrowing
// creeping back, which the zero-alloc crossover search would hide from the
// allocation budget: narrowing every group's winners made about three
// plan-vs-plan narrowings per candidate on the widest DMV compile; narrowing
// only the chosen plan's groups makes 7 per 100.
func TestNarrowingBudget(t *testing.T) {
	cat, q := widestDMV(t)
	pl, err := New(cat).newPlanner(q)
	if err != nil {
		t.Fatal(err)
	}
	pl.enumerateDP(uint64(1)<<uint(len(q.Tables)) - 1)
	t.Logf("%d narrowings for %d candidates", pl.narrowings, pl.candidates)
	if pl.narrowings == 0 {
		t.Error("no narrowing at all: the chosen plan's groups were not rebuilt")
	}
	if 100*pl.narrowings > 15*pl.candidates {
		t.Errorf("%d narrowings for %d candidates, budget 15 %%", pl.narrowings, pl.candidates)
	}
}

// TestReturnedPlansAreNotReused: the enumerator overwrites displaced
// incumbents in place and keeps its nodes in a pooled arena that the next
// compile clears and reuses, none of which may reach a plan it has handed
// out — cached plans stay immutable under the contract stated on Plan. A
// returned plan is unchanged after the same Optimizer compiles other queries,
// and no two of its nodes share a Children, Validity or Cols backing array,
// except that a node with one child may pass that child's Cols through.
func TestReturnedPlansAreNotReused(t *testing.T) {
	cat, qs := smallDMV(t)
	opt := New(cat)
	var plans []*Plan
	var texts []string
	for _, qi := range qs {
		p, err := opt.Optimize(qi.Query)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
		texts = append(texts, planText(p))
	}
	kids, ranges, cols := map[**Plan]string{}, map[*Range]string{}, map[*int]string{}
	for i, p := range plans {
		if now := planText(p); now != texts[i] {
			t.Errorf("%s: plan changed after later compiles\nwas:\n%s\nnow:\n%s", qs[i].Name, texts[i], now)
		}
		p.Walk(func(n *Plan) {
			at := fmt.Sprintf("%s %s tabs=%b", qs[i].Name, n.Op, n.tables)
			if cap(n.Children) > 0 {
				k := &n.Children[:1][0]
				if prev, dup := kids[k]; dup {
					t.Errorf("Children array shared by %s and %s", prev, at)
				}
				kids[k] = at
			}
			if cap(n.Validity) > 0 {
				k := &n.Validity[:1][0]
				if prev, dup := ranges[k]; dup {
					t.Errorf("Validity array shared by %s and %s", prev, at)
				}
				ranges[k] = at
			}
			if cap(n.Cols) > 0 {
				k := &n.Cols[:1][0]
				if len(n.Children) == 1 && cap(n.Children[0].Cols) > 0 && k == &n.Children[0].Cols[:1][0] {
					return // passed through from its only child, which is checked
				}
				if prev, dup := cols[k]; dup {
					t.Errorf("Cols array shared by %s and %s", prev, at)
				}
				cols[k] = at
			}
		})
	}
}

// TestConcurrentCompilesKeepPlans: optimizers on two goroutines draw arenas
// from the one pool at once, and a compile that fails returns its arena as
// well as one that succeeds. Every plan either goroutine gets back equals a
// serial compile's — its EXPLAIN text and every field planText prints — and
// is still equal once both are done; and a failed compile leaves nothing that
// changes the next one's plan.
func TestConcurrentCompilesKeepPlans(t *testing.T) {
	cat, qs := smallDMV(t)
	fingerprint := func(p *Plan, q *logical.Query) string { return Explain(p, q) + planText(p) }
	want := make([]string, len(qs))
	for i, qi := range qs {
		p, err := New(cat).Optimize(qi.Query)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fingerprint(p, qi.Query)
	}

	// A failing compile: the widest query without its last table's join
	// predicates, with NLJN (the only cartesian join) disabled, fills the
	// arena for the connected subsets and then finds no plan for the whole —
	// under DP (maskError) and under the greedy chain.
	widest := qs[0].Query
	for _, qi := range qs {
		if len(qi.Query.Tables) > len(widest.Tables) {
			widest = qi.Query
		}
	}
	disconnected := *widest
	disconnected.Where = nil
	last := uint64(1) << uint(len(widest.Tables)-1)
	for _, p := range widest.Where {
		if m := widest.TablesUsed(p); m == last || m&last == 0 {
			disconnected.Where = append(disconnected.Where, p)
		}
	}
	fail := func(order JoinOrder) {
		o := New(cat)
		o.DisableNLJN, o.JoinOrder = true, order
		if _, err := o.Optimize(&disconnected); err == nil {
			t.Errorf("join order %d: a disconnected join without NLJN compiled", order)
		}
	}

	const rounds = 2
	var wg sync.WaitGroup
	got := make([][]*Plan, 2)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opt := New(cat)
			for r := 0; r < rounds; r++ {
				for i, qi := range qs {
					if i%13 == g {
						fail(JoinOrder(r % 2))
					}
					p, err := opt.Optimize(qi.Query)
					if err != nil {
						t.Error(err)
						return
					}
					if f := fingerprint(p, qi.Query); f != want[i] {
						t.Errorf("goroutine %d round %d %s: plan differs from the serial compile\ngot:\n%s\nwant:\n%s", g, r, qi.Name, f, want[i])
					}
					got[g] = append(got[g], p)
				}
			}
		}(g)
	}
	wg.Wait()
	for g, plans := range got {
		for j, p := range plans {
			qi := qs[j%len(qs)]
			if f := fingerprint(p, qi.Query); f != want[j%len(qs)] {
				t.Errorf("goroutine %d %s: plan changed after later compiles\nnow:\n%s\nwant:\n%s", g, qi.Name, f, want[j%len(qs)])
			}
		}
	}
}
