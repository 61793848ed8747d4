package optimizer

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/logical"
	"repro/internal/stats"
	"repro/internal/tpch"
)

// dumpPlan renders every field of the tree, floats in %b, so that a one-ulp
// difference in a cost, a cardinality or a validity bound changes the text.
func dumpPlan(b *strings.Builder, p *Plan, depth int) {
	fmt.Fprintf(b, "%*s%s t=%d ix=%d lo=%v%t hi=%v%t ij=%t lk=%d el=%v er=%v gb=%v sk=%v lim=%d cols=%v tabs=%b ord=%d card=%b cost=%b filter=%v jp=%v",
		2*depth, "", p.Op, p.Table, p.IndexOrd, p.IndexLo, p.IndexLoInc, p.IndexHi, p.IndexHiInc,
		p.IndexJoin, p.LookupCol, p.EquiLeft, p.EquiRight, p.GroupBy, p.SortKeys, p.Limit,
		p.Cols, p.tables, p.ordered, p.Card, p.Cost, p.Filter, p.JoinPred)
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

type compileWorkload struct {
	cat     *catalog.Catalog
	queries []namedQuery
}

// compileWorkloads loads the DMV and TPC-H databases the identity goldens
// use, at sizes that keep a compile of every query quick.
func compileWorkloads(t *testing.T) []compileWorkload {
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
	return []compileWorkload{{dcat, dmvQs}, {tcat, tpchQs}}
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

// compileConfig is an optimizer configuration the enumeration tests compile
// the workloads under; reopt compiles from reoptState.
type compileConfig struct {
	name  string
	reopt bool
	cfg   func(*Optimizer)
}

// compileConfigs are the configurations the enumeration tests share.
var compileConfigs = []compileConfig{
	{"default", false, func(*Optimizer) {}},
	{"noHSJN", false, func(o *Optimizer) { o.DisableHSJN = true }},
	{"reopt", true, func(*Optimizer) {}},
}

// withGreedy is compileConfigs plus the greedy chain.
func withGreedy() []compileConfig {
	return append(slices.Clip(compileConfigs), compileConfig{"greedy", false, func(o *Optimizer) { o.JoinOrder = JoinOrderGreedy }})
}

// chosenJoins enumerates q as Optimize does under o — the greedy chain for
// JoinOrderGreedy, DP otherwise, for joins no wider than DP's limit — and
// returns the planner and the detached join tree of the chosen plan, before
// narrowChosen. The caller releases pl.arena.
func chosenJoins(t *testing.T, o *Optimizer, q *logical.Query) (*planner, *Plan) {
	t.Helper()
	pl, err := o.newPlanner(q)
	if err != nil {
		t.Fatal(err)
	}
	full := uint64(1)<<uint(len(q.Tables)) - 1
	if o.JoinOrder == JoinOrderGreedy {
		err = pl.enumerateGreedyVisible(full)
	} else {
		pl.enumerateDP(full)
	}
	if err != nil {
		t.Fatal(err)
	}
	return pl, detach(pl.bestOf(full))
}

// joinCandidatesOf counts the join candidates of subset mask the way the
// enumeration costs them: the subset's group is emptied and rebuilt by
// joinSplits, as the DP builds it, and the MVSCAN settle offers is
// subtracted. The group is then put back as it was.
func joinCandidatesOf(pl *planner, mask uint64) int {
	g, before := pl.best[mask], pl.candidates
	pl.best[mask] = nil
	pl.joinSplits(mask, nil)
	n := pl.candidates - before
	if pl.matchMV(mask) != nil {
		n--
	}
	pl.best[mask] = g
	pl.candidates = before
	return n
}

// TestRangesMeetEveryCandidate pins the validity-range definition: every join
// of the plan Optimize returns is narrowed against every join candidate of
// its table subset — under DP and the greedy chain alike — and only after
// the enumeration, on the detached tree. For each join the narrowings made
// for it must equal its subset's join candidates, counted by rebuilding the
// subset's group; narrowChosen over the whole tree must make their sum and
// set the same ranges the per-join pass sets. The returned plans must carry
// bounded ranges, and the reoptimization state must reuse its temp MV, or
// the pass was vacuous.
func TestRangesMeetEveryCandidate(t *testing.T) {
	for _, w := range compileWorkloads(t) {
		cat, queries := w.cat, w.queries
		for _, c := range withGreedy() {
			bounded, mvScans, joins := 0, 0, 0
			for _, nq := range queries {
				var fb *stats.Feedback
				if c.reopt {
					fb = reoptState(t, cat, nq.q)
				}
				o := New(cat)
				c.cfg(o)
				o.Feedback = fb
				where := c.name + " " + nq.name
				got, err := o.Optimize(nq.q)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				got.Walk(func(p *Plan) {
					for i := range p.Children {
						if p.EdgeValidity(i).Bounded() {
							bounded++
						}
					}
				})
				mvScans += got.Count(OpMVScan)

				pl, tree := chosenJoins(t, o, nq.q)
				whole := detach(tree)
				want := 0
				tree.Walk(func(p *Plan) {
					if len(p.Children) != 2 {
						return
					}
					joins++
					n := joinCandidatesOf(pl, p.tables)
					before := pl.narrowings
					pl.joinSplits(p.tables, p)
					if made := pl.narrowings - before; made != n {
						t.Errorf("%s: join %s tabs=%b: %d narrowings, %d join candidates", where, p.Op, p.tables, made, n)
					}
					want += n
				})
				before := pl.narrowings
				pl.narrowChosen(whole)
				if made := pl.narrowings - before; made != want {
					t.Errorf("%s: narrowChosen made %d narrowings, the joins have %d candidates", where, made, want)
				}
				if g, w := planText(whole), planText(tree); g != w {
					t.Errorf("%s: narrowChosen's ranges differ from the per-join pass\nnarrowChosen:\n%s\nper join:\n%s", where, g, w)
				}
				pl.arena.release()
				cat.DropViews()
			}
			if joins == 0 || bounded == 0 {
				t.Errorf("%s: %d joins and no bounded validity range in %d plans; the pass is vacuous", c.name, joins, len(queries))
			}
			if c.reopt && mvScans == 0 {
				t.Errorf("%s: no plan reused the registered temp MV", c.name)
			}
		}
	}
}

// TestNarrowingBudget is the deterministic tripwire for narrowing creeping
// back into the enumeration, which the zero-alloc crossover search would hide
// from the allocation budget: on the widest DMV compile, narrowing every
// group's winners as it pruned made about three plan-vs-plan narrowings per
// candidate (some 60,000 over the 20,014 candidates of the connected
// subsets), while narrowing only the returned plan's joins, once, makes
// 1,580. The ceiling is absolute: a share of the candidates would move with
// the enumeration's size rather than with the range pass.
func TestNarrowingBudget(t *testing.T) {
	const ceiling = 2_000
	cat, q := widestDMV(t)
	pl, tree := chosenJoins(t, New(cat), q)
	defer pl.arena.release()
	pl.narrowChosen(tree)
	t.Logf("%d narrowings for %d candidates", pl.narrowings, pl.candidates)
	if pl.narrowings == 0 {
		t.Error("no narrowing at all: the returned plan's joins were not narrowed")
	}
	if pl.narrowings > ceiling {
		t.Errorf("%d narrowings for %d candidates, budget %d", pl.narrowings, pl.candidates, ceiling)
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
