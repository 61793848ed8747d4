package logical_test

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/dmv"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/tpch"
)

// tablesUsedReference is TablesUsed as it was first defined: the sorted set
// of referenced column ids, each mapped to its table.
func tablesUsedReference(q *logical.Query, e expr.Expr) uint64 {
	var mask uint64
	for _, g := range expr.ColumnsUsed(e) {
		if t := q.TableOf(g); t >= 0 {
			mask |= 1 << uint(t)
		}
	}
	return mask
}

// TestTablesUsedMatchesReference checks the direct expression walk against
// the reference definition on every WHERE conjunct, select expression and
// grouping key of the DMV and TPC-H workloads.
func TestTablesUsedMatchesReference(t *testing.T) {
	queries := map[string]*logical.Query{}

	dcat := catalog.New()
	if err := dmv.Load(dcat, dmv.Config{Scale: 0.02, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	dqs, err := dmv.Queries(dcat)
	if err != nil {
		t.Fatal(err)
	}
	for _, qi := range dqs {
		queries[qi.Name] = qi.Query
	}
	tcat := catalog.New()
	if err := tpch.Load(tcat, tpch.Config{ScaleFactor: 0.001, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	tqs, err := tpch.Queries(tcat)
	if err != nil {
		t.Fatal(err)
	}
	for name, q := range tqs {
		queries[name] = q
	}

	checked, multi := 0, 0
	for name, q := range queries {
		exprs := append([]expr.Expr(nil), q.Where...)
		exprs = append(exprs, q.GroupBy...)
		for _, it := range q.Select {
			if it.E != nil {
				exprs = append(exprs, it.E)
			}
		}
		for _, e := range exprs {
			got, want := q.TablesUsed(e), tablesUsedReference(q, e)
			if got != want {
				t.Errorf("%s: TablesUsed(%s) = %b, reference %b", name, e, got, want)
			}
			checked++
			if want&(want-1) != 0 {
				multi++
			}
		}
	}
	if checked < 300 || multi < 100 {
		t.Errorf("workloads too thin to mean anything: %d expressions, %d multi-table", checked, multi)
	}
	q5 := queries["Q5"]
	if q5.TablesUsed(nil) != 0 {
		t.Error("TablesUsed(nil) must be the empty mask")
	}
	join := q5.JoinPredicates()[0]
	if allocs := testing.AllocsPerRun(100, func() { q5.TablesUsed(join) }); allocs != 0 {
		t.Errorf("TablesUsed allocates %.0f objects per call, want 0", allocs)
	}
}
