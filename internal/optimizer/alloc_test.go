package optimizer

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dmv"
	"repro/internal/logical"
)

// smallDMV loads a small DMV database and its 39-query workload.
func smallDMV(t *testing.T) (*catalog.Catalog, []dmv.QueryInfo) {
	t.Helper()
	cat := catalog.New()
	if err := dmv.Load(cat, dmv.Config{Scale: 0.05, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	qs, err := dmv.Queries(cat)
	if err != nil {
		t.Fatal(err)
	}
	return cat, qs
}

// widestDMV returns the small DMV database and the widest join of its
// workload (ten tables).
func widestDMV(t *testing.T) (*catalog.Catalog, *logical.Query) {
	t.Helper()
	cat, qs := smallDMV(t)
	widest := qs[0].Query
	for _, qi := range qs {
		if len(qi.Query.Tables) > len(widest.Tables) {
			widest = qi.Query
		}
	}
	if len(widest.Tables) != 10 {
		t.Fatalf("widest DMV query joins %d tables, want 10", len(widest.Tables))
	}
	return cat, widest
}

// TestOptimizeAllocBudget pins what a cold DP compile of the widest DMV query
// may allocate. When every candidate was a heap Plan with its own Cols,
// conjunctions and key slices, this call made 3,304,691 allocations; costing
// candidates in planner-owned scratch brought it to 251,435, copying a
// slot-taking candidate over the incumbent it displaces to 125,826 (13.9 MB),
// keeping nodes in a pooled arena, with signatures rendered from parts, to
// 44,287 (1.76 MB), and costing candidates from scalars before building only
// the slot winners to 44,287 (1.74 MB). Deriving each split's shape once per
// compile rather than once per split brought it to 6,907 (0.70 MB), and
// recording slot winners as recipes, built once per slot when their subset
// is complete into groups carved from the arena, to 2,475 (0.53 MB).
// Rendering no signature on a compile with no feedback and no view to match
// brought it to 1,336 (0.32 MB), and enumerating only the connected subsets
// to 393 (65,800 bytes). The ceilings trip on a per-split, per-candidate,
// per-kept-node or per-subset allocation creeping back in, or on the
// enumeration reaching the cross-product subsets again; the allocation
// ceiling leaves room for the race detector dropping the pooled arena on
// every one of the three compiles (about 117 allocations each).
func TestOptimizeAllocBudget(t *testing.T) {
	cat, q := widestDMV(t)
	const ceiling, bytesCeiling = 540, 90_000
	compile := func() {
		if _, err := New(cat).Optimize(q); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, compile)
	// Bytes are the cheapest of ten compiles: a compile that finds the pool
	// empty (the GC or the race detector dropped the arena) pays for a new
	// arena, which is the pool's business, not a per-candidate cost.
	bytes := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		compile()
		runtime.ReadMemStats(&ms)
		bytes = min(bytes, ms.TotalAlloc-before)
	}
	t.Logf("Optimize: %.0f allocations, %d bytes", allocs, bytes)
	if allocs > ceiling {
		t.Errorf("Optimize made %.0f allocations, budget %d", allocs, ceiling)
	}
	if bytes > bytesCeiling {
		t.Errorf("Optimize allocated %d bytes, budget %d", bytes, bytesCeiling)
	}
}

// TestNarrowValidityZeroAlloc: once the winner's Validity slice exists, a
// narrowing against another alternative — both crossover searches, every cost
// evaluation — must not allocate.
func TestNarrowValidityZeroAlloc(t *testing.T) {
	popt, palt, m := nljnVsHsjn(100)
	m.narrowValidity(popt, palt) // warm: allocates popt.Validity
	if allocs := testing.AllocsPerRun(100, func() { m.narrowValidity(popt, palt) }); allocs != 0 {
		t.Errorf("narrowValidity made %.0f allocations on a warmed winner, want 0", allocs)
	}
}
