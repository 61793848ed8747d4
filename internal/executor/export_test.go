package executor

import (
	"runtime"

	"repro/internal/schema"
)

// ChargeAllocsPerRun measures the average heap allocations one work charge
// performs, in the style of testing.AllocsPerRun. TestChargeZeroAllocWhenOff
// uses it to certify the zero-overhead guarantee: with analyze off the
// charge path must allocate nothing.
func ChargeAllocsPerRun(runs int, analyze bool) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ex := &Executor{Meter: &Meter{}, Analyze: analyze}
	b := &base{}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		b.charge(ex, 1)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// naiveJoinPair returns the filter scratch row of the naive nested-loop
// join under root, and whether there is one.
func naiveJoinPair(root Node) (schema.Row, bool) {
	var pair schema.Row
	found := false
	Walk(root, func(n Node) {
		if j, ok := n.(*nljnNode); ok && j.probe == nil {
			pair, found = j.join.pair, true
		}
	})
	return pair, found
}
