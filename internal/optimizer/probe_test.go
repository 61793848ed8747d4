package optimizer

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/schema"
	"repro/internal/types"
)

// probeFixture is the shape of TPC-H Q9's partsupp ⋈ lineitem edge: the inner
// is indexed on one column of a two-column join key. Each value of the indexed
// column (item.i_a, 100 distinct) matches 600 inner rows; the second equality
// (i_b, 6,000 distinct) leaves 0.1 of them per probe.
func probeFixture(t *testing.T) (*catalog.Catalog, *logical.Query) {
	t.Helper()
	c := catalog.New()
	cols := func(p string) *schema.Schema {
		return schema.New(
			schema.Column{Name: p + "_a", Type: types.KindInt},
			schema.Column{Name: p + "_b", Type: types.KindInt},
		)
	}
	part, err := c.CreateTable("part", cols("p"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		part.Heap.MustInsert(schema.Row{types.NewInt(int64(i % 100)), types.NewInt(int64(i * 3))})
	}
	item, err := c.CreateTable("item", cols("i"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60000; i++ {
		item.Heap.MustInsert(schema.Row{types.NewInt(int64(i % 100)), types.NewInt(int64(i % 6000))})
	}
	if _, err := c.CreateBTreeIndex("item_a", "item", "i_a"); err != nil {
		t.Fatal(err)
	}
	if err := c.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	b := logical.NewBuilder(c)
	b.AddTable("part", "p")
	b.AddTable("item", "i")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("p", "p_a"), R: b.Col("i", "i_a")})
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("p", "p_b"), R: b.Col("i", "i_b")})
	b.SelectCol("p", "p_b")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c, q
}

func firstJoin(p *Plan) (join *Plan) {
	p.Walk(func(n *Plan) {
		if join == nil && n.Op.IsJoin() {
			join = n
		}
	})
	return join
}

// TestIndexProbePaysForFetchedRows pins the index-NLJN probe formula in
// isolation: a probe costs the rows its key fetches, not the rows the join
// emits. Charging FetchRow on the output made this join look 300× cheaper
// than it runs and chosen at every outer cardinality, so that no validity
// range had a crossover to guard.
func TestIndexProbePaysForFetchedRows(t *testing.T) {
	cat, q := probeFixture(t)

	// With every other equi-join method off the index NLJN is the plan.
	only := New(cat)
	only.DisableHSJN, only.DisableMGJN = true, true
	p, err := only.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	nljn := firstJoin(p)
	if nljn == nil || !nljn.IndexJoin {
		t.Fatalf("want an index NLJN:\n%s", Explain(p, q))
	}
	outer, probe := nljn.Children[0], nljn.Children[1]
	pr := &only.Model.Params
	if math.Abs(probe.Card-0.1) > 0.01 {
		t.Errorf("probe emits %.3f rows, want 0.1: Card stays the join's output per probe", probe.Card)
	}
	if probe.Cost < 600*pr.FetchRow {
		t.Errorf("one probe costs %.1f, below the %.0f it takes to fetch the 600 rows its key matches", probe.Cost, 600*pr.FetchRow)
	}
	if floor := outer.Card * 600 * pr.FetchRow; nljn.Cost < floor {
		t.Errorf("index NLJN costs %.0f for %.0f probes, below %.0f", nljn.Cost, outer.Card, floor)
	}
	// The cost is linear in the outer cardinality with the per-probe cost as
	// its slope, which is what puts a crossover against the hash join at a
	// small outer cardinality instead of nowhere.
	m := &only.Model
	slope := (m.CostWithEdgeCard(nljn, 0, 1000) - m.CostWithEdgeCard(nljn, 0, 500)) / 500
	if want := probe.Cost + probe.Card*pr.OutputRow; math.Abs(slope-want) > 1e-6*want {
		t.Errorf("d cost / d outer = %.3f, want the per-probe cost %.3f", slope, want)
	}

	chosen, err := New(cat).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	join := firstJoin(chosen)
	if join.Op == OpNLJN {
		t.Fatalf("%.0f probes fetching 600 rows each must lose to a hash join:\n%s", outer.Card, Explain(chosen, q))
	}
	if chosen.Cost >= p.Cost {
		t.Errorf("chosen plan costs %.0f, index NLJN %.0f", chosen.Cost, p.Cost)
	}
	// The two cost lines cross between a handful of outer rows and the
	// estimate: there is a crossover for a validity range to find.
	for i, c := range join.Children {
		if c.tables != outer.tables {
			continue
		}
		if ix, hs := m.CostWithEdgeCard(nljn, 0, 10), m.CostWithEdgeCard(join, i, 10); ix >= hs {
			t.Errorf("at 10 outer rows the index NLJN costs %.0f, not below the hash join's %.0f", ix, hs)
		}
		if ix, hs := m.CostWithEdgeCard(nljn, 0, outer.Card), m.CostWithEdgeCard(join, i, outer.Card); ix <= hs {
			t.Errorf("at %.0f outer rows the index NLJN costs %.0f, not above the hash join's %.0f", outer.Card, ix, hs)
		}
	}
}
