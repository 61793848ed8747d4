package enginetest

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/pop"
	"repro/internal/types"
)

// withMarker returns a copy of q whose first comparison against a literal
// compares against parameter marker ?0 instead, plus the literal's kind; nil
// when q has no such comparison.
func withMarker(q *logical.Query) (*logical.Query, types.Kind) {
	for i, w := range q.Where {
		c, ok := w.(*expr.Cmp)
		if !ok {
			continue
		}
		lit, ok := c.R.(*expr.Const)
		if !ok {
			continue
		}
		m := *q
		m.Where = append([]expr.Expr(nil), q.Where...)
		m.Where[i] = &expr.Cmp{Op: c.Op, L: c.L, R: &expr.Param{ID: 0}}
		m.NumParams = 1
		return &m, lit.Val.Kind()
	}
	return nil, 0
}

// paramBindings is the sweep of values bound to the marker: both sides of
// the small val domain for an integer literal, every tag and one absent
// value for a string literal.
func paramBindings(k types.Kind) [][]types.Datum {
	var out [][]types.Datum
	if k == types.KindString {
		for _, s := range []string{"a", "b", "c", "d", "e", "a", "c", "b"} {
			out = append(out, []types.Datum{types.NewString(s)})
		}
		return out
	}
	for _, v := range []int64{0, 9, 2, 7, 4, 1, 8, 5} {
		out = append(out, []types.Datum{types.NewInt(v)})
	}
	return out
}

// TestDifferentialParameterizedCache is the cache's differential axis: on
// each random database whose random query compares a column with a literal
// (18 of the 25), that literal becomes a marker, and a binding sweep runs
// twice through one cached runner per planner strategy and planning width
// (1 and 2 workers). Misses, guarded hits, guard rejects and any
// invalidating re-optimization all meet brute force over the bound query.
// Without at least one guard reject and one hit the paths they take went
// uncompared, and the test fails.
func TestDifferentialParameterizedCache(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	reg := metrics.New()
	marked := 0
	for seed := uint64(1); seed <= 25; seed++ {
		r := &diffRNG{s: seed * 0x9E3779B97F4A7C15}
		cat, tables := buildRandomDB(t, r)
		q, kind := withMarker(buildRandomQuery(t, cat, tables, r))
		if q == nil {
			continue
		}
		marked++
		bindings := paramBindings(kind)
		want := make([][]string, len(bindings))
		for i, params := range bindings {
			want[i] = canon(bruteForce(t, cat, logical.BindParams(q, params)))
		}
		for _, st := range pop.Strategies() {
			for _, workers := range []int{1, 2} {
				opts := pop.DefaultOptions()
				opts.Planner = st
				opts.Trace = reg
				opts.Configure = func(o *optimizer.Optimizer) { o.Model.Params.Workers = workers }
				runner := pop.NewRunner(cat, opts)
				runner.Cache = pop.NewCache()
				for pass := 0; pass < 2; pass++ {
					for i, params := range bindings {
						id := fmt.Sprintf("seed %d %s w=%d pass %d ?0=%v", seed, st.Name(), workers, pass, params[0])
						res, err := runner.Run(q, params)
						if err != nil {
							t.Fatalf("%s: %v\nquery: %s", id, err, q)
						}
						if d := diffRows(canon(res.Rows), want[i]); d != "" {
							t.Fatalf("%s (hit=%t reopts=%d): %s\nquery: %s",
								id, res.Cache.Hit, res.Reopts, d, q)
						}
					}
				}
			}
		}
	}
	snap := reg.Snapshot()
	t.Logf("%d marked queries: %d hits, %d misses, %d guard rejects, %d invalidations",
		marked, snap.CacheHits, snap.CacheMisses, snap.CacheGuardRejects, snap.CacheInvalidates)
	if snap.CacheGuardRejects == 0 {
		t.Error("no binding was turned away by a guard; the reject path went uncompared")
	}
	if snap.CacheHits == 0 {
		t.Error("no binding was served from the cache; the hit path went uncompared")
	}
}
