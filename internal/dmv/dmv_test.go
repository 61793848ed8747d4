package dmv

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/pop"
	"repro/internal/stats"
)

func load(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	if err := Load(cat, Config{Scale: 0.2, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestLoadTables(t *testing.T) {
	cat := load(t)
	names := cat.TableNames()
	if len(names) != 12 {
		t.Fatalf("tables = %v", names)
	}
	car, err := cat.Table("car")
	if err != nil {
		t.Fatal(err)
	}
	if car.RowCount() < 1000 {
		t.Errorf("car rows = %v", car.RowCount())
	}
	if car.Stats(car.Schema.Ordinal("c_make")) == nil {
		t.Error("car stats missing")
	}
}

func TestCorrelationsExist(t *testing.T) {
	cat := load(t)
	car, _ := cat.Table("car")
	makeOrd := car.Schema.Ordinal("c_make")
	modelOrd := car.Schema.Ordinal("c_model")
	weightOrd := car.Schema.Ordinal("c_weight")
	// Model must functionally determine make and bound weight tightly.
	modelToMake := map[string]string{}
	it := car.Heap.Scan()
	for {
		row, _, ok := it.Next()
		if !ok {
			break
		}
		model, mk := row[modelOrd].Str(), row[makeOrd].Str()
		if prev, seen := modelToMake[model]; seen && prev != mk {
			t.Fatalf("model %s maps to both %s and %s", model, prev, mk)
		}
		modelToMake[model] = mk
		md := 0
		fmt := -1
		_ = fmt
		_ = md
		w := row[weightOrd].Int()
		if w < 1000 || w > 1000+int64(numModels)*45+25 {
			t.Fatalf("weight %d outside model band", w)
		}
	}
	if len(modelToMake) == 0 {
		t.Fatal("no cars scanned")
	}
}

// TestIndependenceUnderestimates verifies the workload actually produces the
// §6 estimation pathology: the estimated cardinality of the correlated CAR
// restriction is far below the actual.
func TestIndependenceUnderestimates(t *testing.T) {
	cat := load(t)
	qs, err := Queries(cat)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0].Query // make+model combo
	car, _ := cat.Table("car")
	// Estimated: product of individual selectivities.
	est := car.RowCount()
	lk := func(pos int) *stats.ColumnStats {
		ti := q.TableOf(pos)
		if ti < 0 {
			return nil
		}
		tab, _ := cat.Table(q.Tables[ti].Table)
		return tab.Stats(q.OrdinalOf(pos))
	}
	for _, p := range q.LocalPredicates(0) { // car is table 0
		est *= stats.Selectivity(p, lk)
	}
	// Actual: evaluate the predicates.
	actual := 0.0
	it := car.Heap.Scan()
	for {
		row, _, ok := it.Next()
		if !ok {
			break
		}
		keep := true
		for _, p := range q.LocalPredicates(0) {
			// CAR is table 0 with global-id base 0, so global ids are
			// already heap ordinals.
			v, err := p.Eval(nil, row)
			if err != nil {
				keep = false
				break
			}
			if ok, err := expr.Accept(v); err != nil || !ok {
				keep = false
				break
			}
		}
		if keep {
			actual++
		}
	}
	if actual == 0 {
		t.Fatal("correlated predicate selects nothing; generator broken")
	}
	if est*5 > actual {
		t.Errorf("expected a severe under-estimate: est %.1f vs actual %.0f", est, actual)
	}
	t.Logf("under-estimate factor: %.1fx (est %.1f, actual %.0f)", actual/est, est, actual)
}

func TestQueriesGenerateAndRun(t *testing.T) {
	cat := load(t)
	qs, err := Queries(cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != NumQueries {
		t.Fatalf("generated %d queries, want %d", len(qs), NumQueries)
	}
	// Run a deterministic sample end-to-end with and without POP and compare.
	for _, i := range []int{0, 5, 13, 22, 31, 38} {
		qi := qs[i]
		t.Run(qi.Name, func(t *testing.T) {
			off, err := pop.NewRunner(cat, pop.Options{Enabled: false}).Run(qi.Query, nil)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			on, err := pop.NewRunner(cat, pop.DefaultOptions()).Run(qi.Query, nil)
			if err != nil {
				t.Fatalf("POP: %v", err)
			}
			if len(on.Rows) != len(off.Rows) {
				t.Errorf("%s (%s): POP %d rows vs baseline %d (reopts=%d)",
					qi.Name, qi.Desc, len(on.Rows), len(off.Rows), on.Reopts)
			}
		})
	}
}

func TestWorkloadTriggersReopts(t *testing.T) {
	cat := load(t)
	qs, err := Queries(cat)
	if err != nil {
		t.Fatal(err)
	}
	reopts := 0
	for _, qi := range qs[:12] {
		res, err := pop.NewRunner(cat, pop.DefaultOptions()).Run(qi.Query, nil)
		if err != nil {
			t.Fatalf("%s: %v", qi.Name, err)
		}
		reopts += res.Reopts
	}
	if reopts == 0 {
		t.Error("correlated workload should trigger at least one re-optimization in 12 queries")
	}
	t.Logf("re-optimizations over 12 queries: %d", reopts)
}
