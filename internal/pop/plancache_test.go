package pop

import (
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/tpch"
	"repro/internal/trace"
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

// cacheFixture reproduces the paper's canonical mis-estimation scenario
// (three perfectly correlated predicates, 25× under-estimate) at a size small
// enough for a unit test: the initial plan picks an index NLJN and a CHECK
// violation flips it to a hash join.
func cacheFixture(t *testing.T) *catalog.Catalog {
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

func q10Param(t testing.TB, cat *catalog.Catalog) *logical.Query {
	t.Helper()
	q, err := tpch.Q10Param(cat)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestKeyNormalization(t *testing.T) {
	cat := tpchFixture(t)
	q1 := q10Param(t, cat)
	q2 := q10Param(t, cat)
	if CacheKey(q1) != CacheKey(q2) {
		t.Errorf("two builds of the same statement must share a key:\n%s\n%s", CacheKey(q1), CacheKey(q2))
	}
	lit25, err := tpch.Q10Literal(cat, 25)
	if err != nil {
		t.Fatal(err)
	}
	lit30, err := tpch.Q10Literal(cat, 30)
	if err != nil {
		t.Fatal(err)
	}
	if CacheKey(q1) == CacheKey(lit25) {
		t.Error("a marker statement and a literal statement must not collide")
	}
	if CacheKey(lit25) == CacheKey(lit30) {
		t.Error("different literal statements must not collide")
	}
}

// TestOutOfRangeNeverReuses is the white-box guard check: a cached plan with
// a bounded guard must never be served to a binding whose estimate falls
// outside the range.
func TestOutOfRangeNeverReuses(t *testing.T) {
	c := catalog.New()
	tab, err := c.CreateTable("t", schema.New(
		schema.Column{Name: "a", Type: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		tab.Heap.MustInsert(schema.Row{types.NewInt(int64(i))})
	}
	if err := c.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	b := logical.NewBuilder(c)
	b.AddTable("t", "t")
	b.SelectCol("t", "a")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	cache := NewCache()
	entry := cache.Entry(CacheKey(q))
	reject := &CachedPlan{
		Plan:    &optimizer.Plan{},
		Guards:  []optimizer.Guard{{Tables: 1, Range: optimizer.Range{Lo: 0, Hi: 50}, EstCard: 25}},
		Explain: "out-of-range",
	}
	entry.Insert(reject)

	// The binding's estimate for subset {t} is 100 rows — outside [0, 50].
	ce, err := optimizer.NewCardEstimator(c, q, entry.Feedback)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := entry.LookupDetail(ce); got != nil {
		t.Fatalf("out-of-range binding must not reuse the cached plan, got %q", got.Explain)
	}

	// The same guard with the estimate in range is served.
	accept := &CachedPlan{
		Plan:    &optimizer.Plan{},
		Guards:  []optimizer.Guard{{Tables: 1, Range: optimizer.Range{Lo: 50, Hi: 200}, EstCard: 100}},
		Explain: "in-range",
	}
	entry.Insert(accept)
	ce2, err := optimizer.NewCardEstimator(c, q, entry.Feedback)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := entry.LookupDetail(ce2)
	if got == nil || got.Explain != "in-range" {
		t.Fatalf("in-range binding must reuse the guarded plan, got %v", got)
	}
}

// cachedRunner returns a runner over the catalog that serves through cache.
func cachedRunner(cache *Cache, cat *catalog.Catalog, opts Options) *Runner {
	r := NewRunner(cat, opts)
	r.Cache = cache
	return r
}

// TestInvalidationAccountsReoptimize pins the invalidation path's accounting:
// the re-cache compile must pair its optimize_start with an optimize_done and
// fold its candidate work into ExecInfo.OptWork on top of attempt 0's compile
// (the miss). A regression here under-reports exactly the executions POP
// worked hardest on and skews every consumer that correlates start/done
// events.
func TestInvalidationAccountsReoptimize(t *testing.T) {
	cat := cacheFixture(t)
	q := correlatedQuery(t, cat)
	col := trace.NewCollector()
	opts := DefaultOptions()
	opts.Trace = col
	res, err := cachedRunner(NewCache(), cat, opts).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	info := res.Cache
	if !info.Invalidated {
		t.Fatal("fixture should invalidate on the first run")
	}

	starts := col.OfKind(trace.OptimizeStart)
	dones := col.OfKind(trace.OptimizeDone)
	if len(starts) != len(dones) {
		t.Fatalf("unpaired optimize events: %d starts vs %d dones", len(starts), len(dones))
	}

	// The re-cache compile runs outside any attempt, so it carries the key
	// hash as its statement identity; the miss is attempt 0's own compile and
	// carries the binding signature like every other attempt.
	kh := fnvHex(CacheKey(q))
	recache := 0
	var recacheWork int
	for _, ev := range dones {
		if ev.Query == kh {
			recache++
			recacheWork = ev.Opt.Candidates
		}
	}
	if recache != 1 {
		t.Fatalf("want exactly the re-cache optimize_done under the key hash, got %d", recache)
	}
	if want := res.Attempts[0].Candidates + recacheWork; info.OptWork != want {
		t.Errorf("OptWork %d, want attempt 0's %d + re-cache %d candidates",
			info.OptWork, res.Attempts[0].Candidates, recacheWork)
	}
}
