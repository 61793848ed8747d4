package pop

import (
	"runtime"
	"testing"

	"repro/internal/sqlparse"
	"repro/internal/tpch"
	"repro/internal/types"
)

// TestCachedQ10BytesBudget caps the heap bytes one execution of the serving
// statement allocates through a warmed cached runner, averaged over a sweep
// of the serving workload's 20 bindings: about 1.63 MB at SF 0.003. Join rows
// carry only the columns read above them, so both hash joins emit 2 datums a
// row instead of 11 and 22; copying whole rows took 3.02 MB.
func TestCachedQ10BytesBudget(t *testing.T) {
	const ceiling = 1_900_000
	cat := tpchFixture(t)
	q, err := sqlparse.Parse(cat, tpch.Q10SQL)
	if err != nil {
		t.Fatal(err)
	}
	runner := NewRunner(cat, DefaultOptions())
	runner.Cache = NewCache()
	sweep := func() {
		for i := 1; i <= 20; i++ {
			if _, err := runner.Run(q, []types.Datum{types.NewFloat(2.5 * float64(i))}); err != nil {
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
	perRun := (after.TotalAlloc - before.TotalAlloc) / 20
	st := runner.Cache.Stats()
	t.Logf("%d bytes per execution (cache: %d hits, %d misses, %d plans)", perRun, st.Hits, st.Misses, st.Plans)
	if perRun > ceiling {
		t.Errorf("a cached execution allocated %d bytes, budget %d", perRun, ceiling)
	}
}
