package plancache

// These tests run the cache end to end through the shim's three-result Run;
// the cache's own unit tests live with it in package pop.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/pop"
	"repro/internal/schema"
	"repro/internal/tpch"
	"repro/internal/types"
)

var (
	tpchOnce sync.Once
	tpchDB   *catalog.Catalog
	tpchErr  error
)

func tpchFixture(t testing.TB) *catalog.Catalog {
	t.Helper()
	tpchOnce.Do(func() {
		tpchDB = catalog.New()
		tpchErr = tpch.Load(tpchDB, tpch.Config{ScaleFactor: 0.003, Seed: 42})
	})
	if tpchErr != nil {
		t.Fatal(tpchErr)
	}
	return tpchDB
}

// correlatedFixture reproduces the paper's canonical mis-estimation scenario
// (three perfectly correlated predicates, 25× under-estimate) at a size small
// enough for a unit test: the initial plan picks an index NLJN and a CHECK
// violation flips it to a hash join.
func correlatedFixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	orders, err := c.CreateTable("orders", schema.New(
		schema.Column{Name: "o_id", Type: types.KindInt},
		schema.Column{Name: "o_cust", Type: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		orders.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)), types.NewInt(int64(i % 500)),
		})
	}
	line, err := c.CreateTable("lineitem", schema.New(
		schema.Column{Name: "l_order", Type: types.KindInt},
		schema.Column{Name: "l_qty", Type: types.KindFloat},
		schema.Column{Name: "l_c1", Type: types.KindInt},
		schema.Column{Name: "l_c2", Type: types.KindInt},
		schema.Column{Name: "l_c3", Type: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40000; i++ {
		corr := int64(i % 10) // l_c1 = l_c2 = l_c3: perfect correlation
		line.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i % 20000)),
			types.NewFloat(float64(i % 50)),
			types.NewInt(corr), types.NewInt(corr), types.NewInt(corr),
		})
	}
	if _, err := c.CreateBTreeIndex("orders_pk", "orders", "o_id"); err != nil {
		t.Fatal(err)
	}
	if err := c.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return c
}

func correlatedQuery(t *testing.T, cat *catalog.Catalog) *logical.Query {
	t.Helper()
	b := logical.NewBuilder(cat)
	b.AddTable("lineitem", "l")
	b.AddTable("orders", "o")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("l", "l_order"), R: b.Col("o", "o_id")})
	two := &expr.Const{Val: types.NewInt(2)}
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("l", "l_c1"), R: two})
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("l", "l_c2"), R: two})
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("l", "l_c3"), R: two})
	b.SelectCol("l", "l_qty")
	b.SelectCol("o", "o_cust")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func q10Param(t testing.TB, cat *catalog.Catalog) *logical.Query {
	t.Helper()
	q, err := tpch.Q10Param(cat)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestHitSkipsOptimization(t *testing.T) {
	cat := tpchFixture(t)
	q := q10Param(t, cat)
	r := NewRunner(New(), cat, pop.DefaultOptions())
	params := []types.Datum{types.NewFloat(25)}

	res1, info1, err := r.Run(q, params)
	if err != nil {
		t.Fatal(err)
	}
	if info1.Hit {
		t.Fatal("first execution must miss")
	}
	if info1.OptWork == 0 {
		t.Fatal("a miss must report enumeration work")
	}
	res2, info2, err := r.Run(q, params)
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Hit {
		t.Fatal("identical binding must hit")
	}
	// Acceptance: a hit's optimization work is at least 5× below a miss's.
	if info2.OptWork*5 > info1.OptWork {
		t.Errorf("hit work %d not ≥5× below miss work %d", info2.OptWork, info1.OptWork)
	}
	if info2.OptWorkSaved <= 0 {
		t.Errorf("hit must report positive work saved, got %d", info2.OptWorkSaved)
	}
	if len(res1.Rows) != len(res2.Rows) {
		t.Errorf("cached execution changed the result: %d vs %d rows", len(res1.Rows), len(res2.Rows))
	}
	// The miss cached one plan; the hit added none.
	if st := r.Cache.Stats(); st.Entries != 1 || st.Plans != 1 {
		t.Errorf("stats: want 1 entry / 1 plan, got %+v", st)
	}
}

// TestViolationInvalidatesEntry drives the full invalidation loop on the
// paper's correlated mis-estimation: the first execution caches an index-NLJN
// plan, a CHECK violation mid-run invalidates it, and the subsequent
// identical execution is served the re-optimized (hash-join) plan without
// re-optimizing again.
func TestViolationInvalidatesEntry(t *testing.T) {
	cat := correlatedFixture(t)
	q := correlatedQuery(t, cat)
	r := NewRunner(New(), cat, pop.DefaultOptions())

	res1, info1, err := r.Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Reopts == 0 {
		t.Fatal("fixture should trigger a re-optimization on the first run")
	}
	if !info1.Invalidated {
		t.Fatal("a violated run must invalidate the cached plan")
	}
	entry := r.Cache.Entry(Key(q))
	plans := entry.Plans()
	if len(plans) != 1 {
		t.Fatalf("entry should hold exactly the re-optimized plan, got %d", len(plans))
	}
	if strings.Contains(plans[0].Explain, "NLJN[index]") {
		t.Fatalf("invalidated NLJN plan still cached:\n%s", plans[0].Explain)
	}

	res2, info2, err := r.Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Hit {
		t.Fatal("subsequent identical execution must hit the re-optimized plan")
	}
	if res2.Reopts != 0 {
		t.Fatalf("the re-optimized plan must run clean, got %d reopts", res2.Reopts)
	}
	if got := optimizer.Explain(res2.Attempts[0].Optimized, q); got != plans[0].Explain {
		t.Errorf("served plan differs from the cached re-optimized plan:\n%s\nvs\n%s",
			got, plans[0].Explain)
	}
	if len(res1.Rows) != len(res2.Rows) {
		t.Errorf("results differ across cache states: %d vs %d rows", len(res1.Rows), len(res2.Rows))
	}
	if info2.Invalidated {
		t.Error("want 1 invalidation, the clean second run reported one too")
	}
}

// TestCacheDisabledMatchesPlainRunner pins the acceptance requirement that a
// nil cache degenerates to the plain POP runner bit-for-bit (same rows, same
// work totals, same re-optimization count).
func TestCacheDisabledMatchesPlainRunner(t *testing.T) {
	cat := correlatedFixture(t)
	q := correlatedQuery(t, cat)

	plain, err := pop.NewRunner(cat, pop.DefaultOptions()).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	viaCacheNil, _, err := NewRunner(nil, cat, pop.DefaultOptions()).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Work != viaCacheNil.Work {
		t.Errorf("work diverged: plain %v vs nil-cache %v", plain.Work, viaCacheNil.Work)
	}
	if plain.Reopts != viaCacheNil.Reopts {
		t.Errorf("reopts diverged: plain %d vs nil-cache %d", plain.Reopts, viaCacheNil.Reopts)
	}
	if len(plain.Rows) != len(viaCacheNil.Rows) {
		t.Errorf("rows diverged: plain %d vs nil-cache %d", len(plain.Rows), len(viaCacheNil.Rows))
	}
}

// TestConcurrentRuns hammers one shared Runner from several goroutines with
// varying bindings; run under -race it validates the cache's locking and the
// shared per-entry feedback.
func TestConcurrentRuns(t *testing.T) {
	cat := tpchFixture(t)
	q := q10Param(t, cat)
	reg := metrics.New()
	opts := pop.DefaultOptions()
	opts.Trace = reg
	r := NewRunner(New(), cat, opts)

	var wg sync.WaitGroup
	var v verdicts
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, qty := range []float64{5, 25, 45, 25} {
				_, info, err := r.Run(q, []types.Datum{types.NewFloat(qty)})
				if err != nil {
					errs <- err
					return
				}
				v.add(info)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := reg.Snapshot()
	if m.CacheHits+m.CacheMisses != 16 || m.CacheHits != int64(v.Hits) {
		t.Errorf("want 16 lookups, %d of them hits; the registry counted %d hits and %d misses",
			v.Hits, m.CacheHits, m.CacheMisses)
	}
	if v.Hits == 0 {
		t.Errorf("repeated bindings should produce hits, got %d hits / %d misses", v.Hits, v.Misses)
	}
}

// verdicts sums the cache verdicts of runs, safely from several goroutines:
// a run the cache did not hit is a miss.
type verdicts struct {
	mu                          sync.Mutex
	Hits, Misses, Invalidations int
}

func (v *verdicts) add(info pop.ExecInfo) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if info.Hit {
		v.Hits++
	} else {
		v.Misses++
	}
	if info.Invalidated {
		v.Invalidations++
	}
}

// TestContendedSignatureCountsMatchSerial hammers one statement signature
// from 16 goroutines and checks, under -race, that the cache's hit, miss,
// invalidation and guard-verdict counts exactly match a serial execution of
// the same workload: concurrency may add lock contention but must never
// change a verdict. The cache is warmed
// first so every concurrent lookup is a guarded hit — the only schedule-
// independent workload, since racing cold misses could legitimately
// duplicate optimizations.
func TestContendedSignatureCountsMatchSerial(t *testing.T) {
	cat := tpchFixture(t)
	const goroutines = 16
	const perG = 4
	binding := []types.Datum{types.NewFloat(25)}

	run := func(concurrent bool) (*verdicts, metrics.Snapshot) {
		t.Helper()
		reg := metrics.New()
		opts := pop.DefaultOptions()
		opts.Trace = reg
		r := NewRunner(New(), cat, opts)
		q := q10Param(t, cat)
		v := &verdicts{}
		// Warm-up: the single cold miss that caches the plan.
		if _, info, err := r.Run(q, binding); err != nil {
			t.Fatal(err)
		} else if info.Hit || info.Invalidated {
			t.Fatalf("warm-up must be a clean miss, got %+v", info)
		} else {
			v.add(info)
		}
		body := func(g int) error {
			for i := 0; i < perG; i++ {
				_, info, err := r.Run(q, binding)
				if err != nil {
					return err
				}
				v.add(info)
				if !info.Hit {
					return fmt.Errorf("goroutine %d run %d: warmed cache missed", g, i)
				}
			}
			return nil
		}
		if concurrent {
			var wg sync.WaitGroup
			errs := make([]error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					errs[g] = body(g)
				}(g)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for g := 0; g < goroutines; g++ {
				if err := body(g); err != nil {
					t.Fatal(err)
				}
			}
		}
		return v, reg.Snapshot()
	}

	serialV, serialM := run(false)
	concV, concM := run(true)

	if concV.Hits != serialV.Hits || concV.Misses != serialV.Misses || concV.Invalidations != serialV.Invalidations {
		t.Errorf("cache verdicts diverged: concurrent hits=%d misses=%d inval=%d vs serial hits=%d misses=%d inval=%d",
			concV.Hits, concV.Misses, concV.Invalidations, serialV.Hits, serialV.Misses, serialV.Invalidations)
	}
	if concV.Hits != goroutines*perG || concV.Misses != 1 {
		t.Errorf("want %d hits / 1 miss, got %d / %d", goroutines*perG, concV.Hits, concV.Misses)
	}
	if concM.CacheHits != int64(concV.Hits) || concM.CacheMisses != int64(concV.Misses) {
		t.Errorf("registry counted %d hits / %d misses, the runs reported %d / %d",
			concM.CacheHits, concM.CacheMisses, concV.Hits, concV.Misses)
	}
	if concM.CacheHits != serialM.CacheHits || concM.CacheMisses != serialM.CacheMisses ||
		concM.CacheGuardRejects != serialM.CacheGuardRejects || concM.CacheInvalidates != serialM.CacheInvalidates {
		t.Errorf("traced guard verdicts diverged: concurrent hits=%d misses=%d rejects=%d inval=%d vs serial hits=%d misses=%d rejects=%d inval=%d",
			concM.CacheHits, concM.CacheMisses, concM.CacheGuardRejects, concM.CacheInvalidates,
			serialM.CacheHits, serialM.CacheMisses, serialM.CacheGuardRejects, serialM.CacheInvalidates)
	}
}
