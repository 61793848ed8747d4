// Package plancache is a shim over the plan cache that now lives in package
// pop as a field of pop.Runner. It keeps the three-result Run the benchmark
// harness under bench/ still calls, and goes when a benchmark change moves
// bench/ to pop.
package plancache

import (
	"repro/internal/catalog"
	"repro/internal/logical"
	"repro/internal/pop"
	"repro/internal/types"
)

// Cache is pop.Cache.
type Cache = pop.Cache

// New returns an empty cache.
func New() *Cache { return pop.NewCache() }

// Key is pop.CacheKey.
func Key(q *logical.Query) string { return pop.CacheKey(q) }

// Runner is a pop.Runner whose Run also returns the cache verdict.
type Runner struct{ *pop.Runner }

// NewRunner returns a runner over the catalog serving through cache.
func NewRunner(cache *Cache, cat *catalog.Catalog, opts pop.Options) *Runner {
	r := pop.NewRunner(cat, opts)
	r.Cache = cache
	return &Runner{r}
}

// Run executes the query and returns the run's cache verdict alongside.
func (r *Runner) Run(q *logical.Query, params []types.Datum) (*pop.Result, pop.ExecInfo, error) {
	res, err := r.Runner.Run(q, params)
	if res == nil {
		return nil, pop.ExecInfo{}, err
	}
	return res, res.Cache, err
}
