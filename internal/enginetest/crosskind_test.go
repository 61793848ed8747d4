package enginetest

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/pop"
	"repro/internal/schema"
	"repro/internal/types"
)

// crossKindFixture builds three tables keyed by an INTEGER, a DOUBLE and a
// DATE column whose values meet across kinds: int 2, float 2.0 and date 2
// are one number to Compare, and the floats hold both −0.0 and +0.0. Each
// key column has an index, so index NLJNs are planned too.
func crossKindFixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	negZero := types.NewFloat(math.Copysign(0, -1))
	mk := func(name string, kind types.Kind, rows int, key func(i int) types.Datum) {
		tab, err := cat.CreateTable(name, schema.New(
			schema.Column{Name: "id", Type: types.KindInt},
			schema.Column{Name: "k", Type: kind, Nullable: true},
		))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			tab.Heap.MustInsert(schema.Row{types.NewInt(int64(i)), key(i)})
		}
		if _, err := cat.CreateBTreeIndex(name+"_k", name, "k"); err != nil {
			t.Fatal(err)
		}
	}
	mk("ti", types.KindInt, 300, func(i int) types.Datum {
		if i%11 == 0 {
			return types.Null
		}
		return types.NewInt(int64(i%9 - 3))
	})
	mk("tf", types.KindFloat, 200, func(i int) types.Datum {
		switch i % 7 {
		case 0:
			return negZero
		case 1:
			return types.NewFloat(0)
		case 2:
			return types.NewFloat(2.5)
		case 3:
			return types.Null
		}
		return types.NewFloat(float64(i%5 - 2))
	})
	mk("td", types.KindDate, 120, func(i int) types.Datum { return types.NewDate(int64(i % 6)) })
	if err := cat.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestDifferentialCrossKindEquiJoin joins int, float and date keys with each
// other and ±0 with itself, under the default plan, hash joins only, and
// with HSJN and MGJN disabled in turn, and compares every result with brute
// force. A join method whose key equality disagreed with Compare — a hash
// join hashing int 2 and float 2.0, or −0 and +0, apart — loses matches here.
func TestDifferentialCrossKindEquiJoin(t *testing.T) {
	cat := crossKindFixture(t)
	configs := []struct {
		name string
		cfg  func(*optimizer.Optimizer)
	}{
		{"default", nil},
		{"hash-only", hashOnly},
		{"no-hsjn", func(o *optimizer.Optimizer) { o.DisableHSJN = true }},
		{"no-mgjn", func(o *optimizer.Optimizer) { o.DisableMGJN = true }},
	}
	joins := [][]string{
		{"ti", "tf"}, {"tf", "ti"}, {"ti", "td"}, {"td", "tf"}, {"tf", "tf"}, {"ti", "tf", "td"},
	}
	hashJoins := 0
	for _, tabs := range joins {
		b := logical.NewBuilder(cat)
		for i, tab := range tabs {
			alias := fmt.Sprintf("a%d", i)
			b.AddTable(tab, alias)
			b.SelectCol(alias, "id")
			if i > 0 {
				b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col(fmt.Sprintf("a%d", i-1), "k"), R: b.Col(alias, "k")})
			}
		}
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		want := canon(bruteForce(t, cat, q))
		if len(want) == 0 {
			t.Fatalf("%v: brute force joins nothing; the test is vacuous", tabs)
		}
		for _, c := range configs {
			opts := pop.DefaultOptions()
			opts.Configure = c.cfg
			res, err := pop.NewRunner(cat, opts).Run(q, nil)
			if err != nil {
				t.Fatalf("%v %s: %v", tabs, c.name, err)
			}
			plan := res.Attempts[len(res.Attempts)-1]
			if d := diffRows(canon(res.Rows), want); d != "" {
				t.Errorf("%v %s: %s\nplan:\n%s", tabs, c.name, d, plan.Explain())
			}
			for _, a := range res.Attempts {
				if planHas(a.Plan, func(p *optimizer.Plan) bool { return p.Op == optimizer.OpHSJN }) {
					hashJoins++
				}
			}
		}
	}
	t.Logf("%d attempts ran a hash join", hashJoins)
	if hashJoins == 0 {
		t.Error("no attempt ran a hash join")
	}
}
