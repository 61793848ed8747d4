package harness

import (
	"fmt"

	"repro/internal/pop"
	"repro/internal/tpch"
	"repro/internal/types"
)

// planCacheBindings returns one sweep of Q10 quantity bindings, 2.5 .. 50.
func planCacheBindings() []float64 {
	var out []float64
	for qty := 2.5; qty <= 50; qty += 2.5 {
		out = append(out, qty)
	}
	return out
}

// planCacheSweeps is how many times the plan-cache study repeats the sweep.
const planCacheSweeps = 3

// planCacheStudy sweeps parameterized TPC-H Q10 over quantity bindings
// planCacheSweeps times. The "cached" cell runs every execution through one
// plan cache: the first sweep populates it (misses, possibly several
// range-disjoint plans), later sweeps mostly hit. The "reoptimize" cell
// optimizes every execution from scratch with the same parameter-bound
// estimation, so the comparison isolates what the cache saves (opt_work:
// candidate costings + guard estimates) and what it risks (exec_work from
// reusing a guarded plan).
func planCacheStudy(env Env) ([]Cell, error) {
	cat := env.TPCH
	q, err := tpch.Q10Param(cat)
	if err != nil {
		return nil, err
	}
	bindings := planCacheBindings()

	var cached, reopt tally
	var cachedVerdicts verdicts
	var cachedOpt, reoptOpt int
	runner := pop.NewRunner(cat, pop.DefaultOptions())
	runner.Cache = pop.NewCache()
	fresh := pop.DefaultOptions()
	fresh.BindParamEstimates = true
	plain := pop.NewRunner(cat, fresh)
	for s := 0; s < planCacheSweeps; s++ {
		for _, qty := range bindings {
			params := []types.Datum{types.NewFloat(qty)}
			r, err := runner.Run(q, params)
			if err != nil {
				return nil, fmt.Errorf("cached, qty=%v: %w", qty, err)
			}
			cached.add(r)
			cachedVerdicts.add(r.Cache)
			cachedOpt += r.Cache.OptWork

			// A run from scratch, with the same parameter-bound estimation
			// the cache's miss path uses.
			if r, err = plain.Run(q, params); err != nil {
				return nil, fmt.Errorf("reoptimize, qty=%v: %w", qty, err)
			}
			reopt.add(r)
			reoptOpt += r.Attempts[0].Candidates
		}
	}
	cachedCounts := append(cached.counts(), cachedVerdicts.counts(runner.Cache)...)
	return []Cell{
		{"cached", append(cachedCounts, Count{"opt_work", float64(cachedOpt)})},
		{"reoptimize", append(reopt.counts(), Count{"opt_work", float64(reoptOpt)})},
	}, nil
}
