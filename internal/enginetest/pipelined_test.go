package enginetest

import (
	"errors"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/logical"
	"repro/internal/optimizer"
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

// pipelinedAttempt runs plan as one pipelined attempt: an anti-join against
// the rows earlier attempts returned (when side holds any), under an INSERT
// that records what this attempt returns.
func pipelinedAttempt(t *testing.T, cat *catalog.Catalog, q *logical.Query, opt *optimizer.Optimizer,
	plan *optimizer.Plan, side *executor.ReturnedSet) (rows []schema.Row, emitted *executor.ReturnedSet, err error) {
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
	emitted = executor.NewReturnedSet()
	rows, err = executor.Run(executor.NewInsertRid(ex, root, emitted))
	return rows, emitted, err
}

// TestPipelinedCompensationDifferential is the brute-force differential for
// pipelined execution (paper §3.3, Figure 9). On random databases and queries,
// under every join method, an ECDC CHECK is made to fire at every ordinal of
// two edges — the join's streaming input, where rows the join already
// produced are in flight when the violation arrives, and the edge into the
// final projection — and each time: the rows the first attempt returned plus
// the compensated re-run are exactly the brute-force multiset; the side table
// holds exactly the rows Run returned, not rows an operator had produced but
// not yet delivered when the error arrived; and the re-run compensates every
// one of them exactly once.
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
	fired := 0
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
					side := executor.NewReturnedSet()
					first, emitted, runErr := pipelinedAttempt(t, cat, q, opt, guardEdge(plan, edge, float64(k)), side)
					var cv *executor.CheckViolation
					if runErr != nil && !errors.As(runErr, &cv) {
						t.Fatalf("seed %d %s edge %v k=%d: %v", seed, c.name, edge, k, runErr)
					}
					if emitted.Len() != len(first) {
						t.Fatalf("seed %d %s edge %v k=%d: Run returned %d rows, the side table recorded %d",
							seed, c.name, edge, k, len(first), emitted.Len())
					}
					all := first
					if cv != nil {
						fired++
						side.Merge(emitted)
						rest, _, err := pipelinedAttempt(t, cat, q, opt, plan, side)
						if err != nil {
							t.Fatalf("seed %d %s edge %v k=%d: re-run: %v", seed, c.name, edge, k, err)
						}
						if side.Len() != 0 {
							t.Fatalf("seed %d %s edge %v k=%d: %d of %d returned rows were not compensated",
								seed, c.name, edge, k, side.Len(), len(first))
						}
						all = append(all, rest...)
					}
					got := canon(all)
					if len(got) != len(want) {
						t.Fatalf("seed %d %s edge %v k=%d: %d rows (%d before the violation), brute force %d\n%s",
							seed, c.name, edge, k, len(got), len(first), len(want), optimizer.Explain(plan, q))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("seed %d %s edge %v k=%d: row %d: %s != %s", seed, c.name, edge, k, i, got[i], want[i])
						}
					}
					if cv == nil {
						break
					}
				}
			}
		}
	}
	if fired < 500 {
		t.Errorf("only %d violations fired: the sweep no longer exercises compensation", fired)
	}
}
