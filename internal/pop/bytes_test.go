package pop

import (
	"runtime"
	"testing"

	"repro/internal/logical"
	"repro/internal/sqlparse"
	"repro/internal/tpch"
	"repro/internal/types"
)

// perCachedExecution runs q once per binding through a cached runner warmed
// with the same bindings, and returns the heap bytes and allocations one
// execution averages, with the cache's size.
func perCachedExecution(t *testing.T, q *logical.Query, bindings [][]types.Datum) (bytes, allocs uint64, st CacheStats) {
	t.Helper()
	runner := NewRunner(tpchFixture(t), DefaultOptions())
	runner.Cache = NewCache()
	sweep := func() {
		for _, params := range bindings {
			if _, err := runner.Run(q, params); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweep() // every binding meets the cache
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sweep()
	runtime.ReadMemStats(&after)
	n := uint64(len(bindings))
	return (after.TotalAlloc - before.TotalAlloc) / n, (after.Mallocs - before.Mallocs) / n, runner.Cache.Stats()
}

// q10Sweep is the serving statement with the serving workload's 20 bindings.
func q10Sweep(t *testing.T) (*logical.Query, [][]types.Datum) {
	t.Helper()
	q, err := sqlparse.Parse(tpchFixture(t), tpch.Q10SQL)
	if err != nil {
		t.Fatal(err)
	}
	bindings := make([][]types.Datum, 20)
	for i := range bindings {
		bindings[i] = []types.Datum{types.NewFloat(2.5 * float64(i+1))}
	}
	return q, bindings
}

// byteCeiling is a byte budget: plain without -race and raced under it.
func byteCeiling(plain, raced uint64) uint64 {
	if raceEnabled {
		return raced
	}
	return plain
}

// TestCachedQ10BytesBudget caps the heap bytes one execution of the serving
// statement allocates through a warmed cached runner, averaged over a sweep
// of the serving workload's 20 bindings: about 230 kB at SF 0.003 (190–260 kB
// over 30 runs), and the ceiling is 320 kB. The hash joins take their build
// memory from a pool and return it on Close, so a warmed execution reuses
// it; building it anew each time took 1.05 MB. Under -race, whose sync.Pool
// drops a share of Puts, 100 runs measured 290–650 kB, and the ceiling is
// 800 kB. Join rows carry only the columns read above them, so both hash
// joins emit 2 datums a row instead of 11 and 22 (copying whole rows took
// 3.02 MB); the joins and the aggregation share one flat hash table (three
// Go-map tables took 1.63 MB).
func TestCachedQ10BytesBudget(t *testing.T) {
	ceiling := byteCeiling(320_000, 800_000)
	q, bindings := q10Sweep(t)
	perRun, _, st := perCachedExecution(t, q, bindings)
	t.Logf("%d bytes per execution (cache: %d entries, %d plans)", perRun, st.Entries, st.Plans)
	if perRun > ceiling {
		t.Errorf("a cached execution allocated %d bytes, budget %d", perRun, ceiling)
	}
}

// TestCachedQ10AllocBudget caps the heap allocations of the same execution:
// about 320, or 370 under -race, whose sync.Pool drops a share of the hash
// joins' pooled build memory. The join tables and the aggregation's groups
// live in a few arenas each; with a Go map per table and a key row, a states
// slice and one state per aggregate for every group, it took about 3,600.
func TestCachedQ10AllocBudget(t *testing.T) {
	const ceiling = 450
	q, bindings := q10Sweep(t)
	_, perRun, st := perCachedExecution(t, q, bindings)
	t.Logf("%d allocations per execution (cache: %d entries, %d plans)", perRun, st.Entries, st.Plans)
	if perRun > ceiling {
		t.Errorf("a cached execution made %d allocations, budget %d", perRun, ceiling)
	}
}

// TestQ18BytesBudget caps the heap bytes of a cached TPC-H Q18, the
// aggregation with the most groups: about 0.93–0.98 MB at SF 0.003, and the
// ceiling is 1.1 MB (a build memory made anew each execution took 1.23 MB;
// Go-map tables took 2.24 MB). Under -race 100 runs measured 0.93–1.20 MB,
// and the ceiling is 1.4 MB. The aggregation's arenas start small and grow
// once to the plan's group estimate, so slack in how they grow shows here
// first.
func TestQ18BytesBudget(t *testing.T) {
	ceiling := byteCeiling(1_100_000, 1_400_000)
	q, err := tpch.Q18(tpchFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	perRun, _, _ := perCachedExecution(t, q, make([][]types.Datum, 5))
	t.Logf("%d bytes per execution", perRun)
	if perRun > ceiling {
		t.Errorf("a cached Q18 execution allocated %d bytes, budget %d", perRun, ceiling)
	}
}

// TestFetchBytesBudget caps the heap bytes one cached execution of the
// large-reply serving statement allocates, averaged over its five bindings
// (32–48 % of LINEITEM): about 1.62 MB at SF 0.003. The result's datums
// take about 1.15 MB, and the ceiling, 2,000,000, sits halfway to a second
// allocated copy of them. It does not tell a copy that reuses memory from
// none: when the projection reused one slab and Run copied every row out
// of it, the copy allocated the same bytes, and that code (1.63 MB) passes
// this budget too. TestProjectionRowsAreStable is what pins the single
// copy.
func TestFetchBytesBudget(t *testing.T) {
	const ceiling = 2_000_000
	q, err := sqlparse.Parse(tpchFixture(t), `SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice, l_shipdate
	FROM lineitem WHERE l_quantity <= ?`)
	if err != nil {
		t.Fatal(err)
	}
	var bindings [][]types.Datum
	for _, v := range []float64{16, 18, 20, 22, 24} {
		bindings = append(bindings, []types.Datum{types.NewFloat(v)})
	}
	perRun, allocs, _ := perCachedExecution(t, q, bindings)
	t.Logf("%d bytes, %d allocations per execution", perRun, allocs)
	if perRun > ceiling {
		t.Errorf("a cached execution allocated %d bytes, budget %d", perRun, ceiling)
	}
}
