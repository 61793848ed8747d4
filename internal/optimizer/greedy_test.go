package optimizer

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/schema"
	"repro/internal/types"
)

// threeWayQuery is the chain join dim ⋈ fact ⋈ other over the shared
// fixture, with a visible selective predicate on dim so the greedy seed
// choice has something to score.
func threeWayQuery(t *testing.T, hi int64) *logical.Query {
	t.Helper()
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("dim", "d")
	b.AddTable("fact", "f")
	b.AddTable("other", "o")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("d", "d_id"), R: b.Col("f", "f_dim")})
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("f", "f_id"), R: b.Col("o", "o_fact")})
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("d", "d_id"), R: &expr.Const{Val: types.NewInt(hi)}})
	b.SelectCol("d", "d_tag")
	b.SelectCol("o", "o_id")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestGreedyDeterminism pins the statistics-free planner's output: a fresh
// optimizer with JoinOrder=JoinOrderGreedy over a freshly built query must
// produce byte-identical EXPLAIN text every round. The greedy seed and step
// selection break ties by table index, so no map-iteration order may leak
// into the chosen join order.
func TestGreedyDeterminism(t *testing.T) {
	cat := fixture(t)

	builds := map[string]func(t *testing.T) *logical.Query{
		"selective-two-way": func(t *testing.T) *logical.Query {
			return selectiveJoinQuery(t, cat, 5)
		},
		"three-way-chain": func(t *testing.T) *logical.Query {
			return threeWayQuery(t, 5)
		},
	}

	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			var first string
			// Several rounds: Go re-randomizes map iteration per run, so an
			// order-dependent tie-break has many chances to flip.
			for round := 0; round < 8; round++ {
				q := build(t)
				o := New(cat)
				o.JoinOrder = JoinOrderGreedy
				p, err := o.Optimize(q)
				if err != nil {
					t.Fatal(err)
				}
				text := Explain(p, q)
				if round == 0 {
					first = text
					continue
				}
				if text != first {
					t.Fatalf("greedy EXPLAIN diverged on round %d:\n--- first ---\n%s\n--- round %d ---\n%s",
						round, first, round, text)
				}
			}
		})
	}
}

// TestGreedyEnumeratesFewerCandidates: the point of the greedy order is a
// linear enumeration, so on a multi-way join it must cost strictly fewer
// candidates than dynamic programming over the same query.
func TestGreedyEnumeratesFewerCandidates(t *testing.T) {
	cat := fixture(t)

	dp := New(cat)
	if _, err := dp.Optimize(threeWayQuery(t, 5)); err != nil {
		t.Fatal(err)
	}
	gr := New(cat)
	gr.JoinOrder = JoinOrderGreedy
	if _, err := gr.Optimize(threeWayQuery(t, 5)); err != nil {
		t.Fatal(err)
	}
	if gr.EnumeratedCandidates >= dp.EnumeratedCandidates {
		t.Fatalf("greedy should enumerate fewer candidates than DP: greedy=%d dp=%d",
			gr.EnumeratedCandidates, dp.EnumeratedCandidates)
	}
	if gr.EnumeratedCandidates == 0 {
		t.Fatal("greedy enumeration produced no candidates")
	}
}

// TestGreedyPlanIsExecutable: the greedy order still goes through the
// costed physical operators, so the plan must carry costs and validity
// ranges like any DP plan — checkpoint placement depends on them.
func TestGreedyPlanIsExecutable(t *testing.T) {
	cat := fixture(t)
	o := New(cat)
	o.JoinOrder = JoinOrderGreedy
	q := threeWayQuery(t, 5)
	p, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost <= 0 {
		t.Fatalf("greedy plan has no cost: %v", p.Cost)
	}
	s := Explain(p, q)
	for _, alias := range []string{"(d)", "(f)", "(o)"} {
		if !strings.Contains(s, alias) {
			t.Fatalf("greedy plan dropped table %s:\n%s", alias, s)
		}
	}
	if !strings.Contains(s, "validity") {
		t.Fatalf("greedy plan has no validity ranges — POP placement would be blind:\n%s", s)
	}
}

// TestVisibleWeight pins the syntax-only scoring: equality against a
// constant or parameter outweighs a range predicate, which outweighs
// anything else.
func TestVisibleWeight(t *testing.T) {
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("dim", "d")
	col := b.Col("d", "d_id")
	five := &expr.Const{Val: types.NewInt(5)}

	eq := visibleWeight(&expr.Cmp{Op: expr.EQ, L: col, R: five})
	eqParam := visibleWeight(&expr.Cmp{Op: expr.EQ, L: col, R: b.Param(0)})
	rng := visibleWeight(&expr.Cmp{Op: expr.LT, L: col, R: five})
	other := visibleWeight(&expr.Cmp{Op: expr.NE, L: col, R: five})

	if eq != eqParam {
		t.Fatalf("constant and parameter equality must score alike: %d vs %d", eq, eqParam)
	}
	if !(eq > rng && rng > other && other > 0) {
		t.Fatalf("weight ordering broken: eq=%d range=%d other=%d", eq, rng, other)
	}
}

// chainQuery joins n aliases of one 100-row table in a chain,
// t0.nxt = t1.id = … , with an equality filter on t0.
func chainQuery(t *testing.T, n int) (*catalog.Catalog, *logical.Query) {
	t.Helper()
	cat := catalog.New()
	tab, err := cat.CreateTable("t", schema.New(
		schema.Column{Name: "id", Type: types.KindInt},
		schema.Column{Name: "nxt", Type: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		tab.Heap.MustInsert(schema.Row{types.NewInt(i), types.NewInt((i * 7) % 100)})
	}
	if err := cat.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	b := logical.NewBuilder(cat)
	for i := 0; i < n; i++ {
		b.AddTable("t", fmt.Sprintf("t%d", i))
	}
	for i := 0; i+1 < n; i++ {
		b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col(fmt.Sprintf("t%d", i), "nxt"), R: b.Col(fmt.Sprintf("t%d", i+1), "id")})
	}
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("t0", "id"), R: &expr.Const{Val: types.NewInt(3)}})
	b.SelectCol(fmt.Sprintf("t%d", n-1), "id")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return cat, q
}

// TestWideJoinUsesGreedyChain: past dpMaxTables tables the default optimizer
// plans exactly what JoinOrderGreedy plans — the same plan from the same
// candidates — and at dpMaxTables it still runs DP, which costs more
// candidates than the chain.
func TestWideJoinUsesGreedyChain(t *testing.T) {
	for _, n := range []int{dpMaxTables, dpMaxTables + 1, 64} {
		cat, q := chainQuery(t, n)
		auto, greedy := New(cat), New(cat)
		greedy.JoinOrder = JoinOrderGreedy
		pa, err := auto.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := greedy.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		ea, eg := Explain(pa, q), Explain(pg, q)
		if n <= dpMaxTables {
			if auto.EnumeratedCandidates <= greedy.EnumeratedCandidates {
				t.Errorf("%d tables: DP costed %d candidates, the chain %d; want DP to cost more",
					n, auto.EnumeratedCandidates, greedy.EnumeratedCandidates)
			}
			continue
		}
		if ea != eg || auto.EnumeratedCandidates != greedy.EnumeratedCandidates {
			t.Errorf("%d tables: default plan (%d candidates) differs from the greedy chain's (%d):\n%s\n---\n%s",
				n, auto.EnumeratedCandidates, greedy.EnumeratedCandidates, ea, eg)
		}
	}
}
