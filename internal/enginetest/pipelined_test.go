package enginetest

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/pop"
	"repro/internal/schema"
)

// guardEdge returns a copy of plan whose edge at path (child indexes from the
// root) carries an ECDC CHECK with range [0, hi]; every node along the path is
// cloned, so the input plan is untouched.
func guardEdge(plan *optimizer.Plan, path []int, hi float64) *optimizer.Plan {
	n := optimizer.CloneNode(plan)
	if len(path) == 1 {
		c := n.Children[path[0]]
		n.Children[path[0]] = optimizer.WrapCheck(c, &optimizer.CheckMeta{
			Flavor: optimizer.ECDC, Range: optimizer.Range{Lo: 0, Hi: hi}, EstCard: c.Card,
		})
		return n
	}
	n.Children[path[0]] = guardEdge(n.Children[path[0]], path[1:], hi)
	return n
}

// pipelinedAttempt runs plan as one pipelined attempt, as the POP runner
// does: an anti-join against the rows earlier attempts returned (when side
// holds any), under an INSERT that records what this attempt returns into
// the same side table.
func pipelinedAttempt(t *testing.T, cat *catalog.Catalog, q *logical.Query, opt *optimizer.Optimizer,
	plan *optimizer.Plan, side *executor.ReturnedSet) (rows []schema.Row, err error) {
	t.Helper()
	ex, xerr := executor.NewExecutor(cat, q, nil, opt.Model.Params, &executor.Meter{})
	if xerr != nil {
		t.Fatal(xerr)
	}
	root, berr := ex.Build(plan)
	if berr != nil {
		t.Fatalf("build: %v\n%s", berr, optimizer.Explain(plan, q))
	}
	if side.Len() > 0 {
		root = executor.NewAntiJoin(ex, root, side)
	}
	return executor.Run(executor.NewInsertRid(ex, root, side))
}

// TestPipelinedCompensationDifferential is the brute-force differential for
// pipelined execution (paper §3.3, Figure 9). On random databases and queries,
// under every join method, an ECDC CHECK is made to fire at every ordinal of
// two edges — the join's streaming input, where rows the join already
// produced are in flight when the violation arrives, and the edge into the
// final projection. The compensated re-run is guarded at the same edge once
// more, further along, so violations chain: a second attempt whose anti-join
// has already suppressed rows is itself cut short, and a third attempt runs
// the plan to the end. Each time: the rows every attempt returned are exactly
// the brute-force multiset; the side table holds exactly the rows Run
// returned, not rows an operator had produced but not yet delivered when the
// error arrived; and no attempt's anti-join takes rows out of the side table.
func TestPipelinedCompensationDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	configs := []struct {
		name string
		cfg  func(*optimizer.Optimizer)
	}{
		{"default", func(o *optimizer.Optimizer) {}},
		{"onlyHash", func(o *optimizer.Optimizer) { o.DisableNLJN = true; o.DisableMGJN = true }},
		{"onlyMerge", func(o *optimizer.Optimizer) { o.DisableNLJN = true; o.DisableHSJN = true }},
		{"onlyNLJN", func(o *optimizer.Optimizer) { o.DisableHSJN = true; o.DisableMGJN = true }},
	}
	fired, chained := 0, 0
	for seed := uint64(1); seed <= 8; seed++ {
		r := &diffRNG{s: seed * 0x9E3779B97F4A7C15}
		cat, tables := buildRandomDB(t, r)
		q := buildRandomQuery(t, cat, tables, r)
		want := canon(bruteForce(t, cat, q))

		for _, c := range configs {
			opt := optimizer.New(cat)
			c.cfg(opt)
			plan, err := opt.Optimize(q)
			if err != nil {
				t.Fatalf("seed %d %s: optimize: %v", seed, c.name, err)
			}
			edges := [][]int{{0}}
			if top := plan.Children[0]; len(top.Children) == 2 {
				edges = append(edges, []int{0, 0})
			}
			for _, edge := range edges {
				// hi = k lets k rows through and fires on the next; the sweep
				// ends with the first k the edge never exceeds.
				for k := 0; ; k++ {
					attempts := []*optimizer.Plan{guardEdge(plan, edge, float64(k)), guardEdge(plan, edge, float64(2*k+1)), plan}
					side := executor.NewReturnedSet()
					var all []schema.Row
					n := 0
					for ; n < len(attempts); n++ {
						id := fmt.Sprintf("seed %d %s edge %v k=%d attempt %d", seed, c.name, edge, k, n)
						rows, runErr := pipelinedAttempt(t, cat, q, opt, attempts[n], side)
						var cv *executor.CheckViolation
						if runErr != nil && !errors.As(runErr, &cv) {
							t.Fatalf("%s: %v", id, runErr)
						}
						if side.Len() != len(all)+len(rows) {
							t.Fatalf("%s: Run returned %d rows after %d earlier ones, the side table holds %d",
								id, len(rows), len(all), side.Len())
						}
						if n == 1 && cv != nil && len(all) > 0 {
							chained++
						}
						all = append(all, rows...)
						if cv == nil {
							break
						}
					}
					got := canon(all)
					if len(got) != len(want) {
						t.Fatalf("seed %d %s edge %v k=%d: %d rows over %d attempts, brute force %d\n%s",
							seed, c.name, edge, k, len(got), n+1, len(want), optimizer.Explain(plan, q))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("seed %d %s edge %v k=%d: row %d: %s != %s", seed, c.name, edge, k, i, got[i], want[i])
						}
					}
					if n == 0 {
						break
					}
					fired++
				}
			}
		}
	}
	if fired < 500 {
		t.Errorf("only %d violations fired: the sweep no longer exercises compensation", fired)
	}
	if chained < 100 {
		t.Errorf("only %d compensated attempts were violated in turn: the sweep no longer chains violations", chained)
	}
}

// TestPipelinedECDCRepeatedReopts pins the sargable queries on which
// pipelined ECDC re-optimizes at least twice: the second, compensated attempt
// is itself violated after its anti-join has suppressed rows, so the third
// attempt must still compensate every row the first one returned.
func TestPipelinedECDCRepeatedReopts(t *testing.T) {
	cases := []struct {
		seed  uint64
		shape string
	}{
		{28, "rangeThenEq"},
		{51, "loTightFirst"},
		{51, "loLooseFirst"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("seed%d/%s", c.seed, c.shape), func(t *testing.T) {
			r := &diffRNG{s: c.seed * 0x9E3779B97F4A7C15}
			cat, tables := buildRandomDB(t, r)
			i := slices.IndexFunc(sargableShapes, func(sh sargableShape) bool { return sh.name == c.shape })
			q := buildSargableQuery(t, cat, tables, sargableShapes[i])
			if q == nil {
				t.Fatalf("no table of seed %d has an index for %s", c.seed, c.shape)
			}
			opts := pop.DefaultOptions()
			opts.Pipelined = true
			opts.Policy = pop.Policy{ECDC: true, RequireBoundedRange: true}
			res, err := pop.NewRunner(cat, opts).Run(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Reopts < 2 {
				t.Fatalf("re-optimized %d times, want at least 2: the case no longer chains violations", res.Reopts)
			}
			if d := diffRows(canon(res.Rows), canon(bruteForce(t, cat, q))); d != "" {
				t.Fatalf("%s (reopts=%d)\nquery: %s", d, res.Reopts, q)
			}
		})
	}
}
