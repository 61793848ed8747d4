// Package repro's root benchmarks regenerate every figure of the paper's
// evaluation (BenchmarkStudies, one sub-benchmark per figure study), time
// Table 1's checkpoint placement, and run the ablation studies of DESIGN.md
// §4. Results that matter are reported as custom metrics in
// deterministic simulated work units; wall-clock ns/op confirms the engine
// itself is fast.
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dmv"
	"repro/internal/executor"
	"repro/internal/expr"
	"repro/internal/harness"
	"repro/internal/optimizer"
	"repro/internal/pop"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/tpch"
	"repro/internal/types"
)

// Shared fixtures, loaded once.
var (
	tpchOnce sync.Once
	tpchDB   *catalog.Catalog

	dmvOnce sync.Once
	dmvDB   *catalog.Catalog
	dmvQS   []dmv.QueryInfo
)

func tpchFixture(b *testing.B) *catalog.Catalog {
	b.Helper()
	tpchOnce.Do(func() {
		tpchDB = catalog.New()
		if err := tpch.Load(tpchDB, tpch.Config{ScaleFactor: 0.003, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	})
	return tpchDB
}

func dmvFixture(b *testing.B) (*catalog.Catalog, []dmv.QueryInfo) {
	b.Helper()
	dmvOnce.Do(func() {
		dmvDB = catalog.New()
		if err := dmv.Load(dmvDB, dmv.Config{Scale: 0.3, Seed: 17}); err != nil {
			b.Fatal(err)
		}
		var err error
		dmvQS, err = dmv.Queries(dmvDB)
		if err != nil {
			b.Fatal(err)
		}
	})
	return dmvDB, dmvQS
}

// BenchmarkTable1CheckpointPlacement regenerates Table 1's subject matter:
// it measures the checkpoint-placement post-pass over the Q5 plan and
// reports how many checkpoints each flavor family places.
func BenchmarkTable1CheckpointPlacement(b *testing.B) {
	cat := tpchFixture(b)
	queries, err := tpch.Queries(cat)
	if err != nil {
		b.Fatal(err)
	}
	q := queries["Q5"]
	plan, err := optimizer.New(cat).Optimize(q)
	if err != nil {
		b.Fatal(err)
	}
	pol := pop.Policy{LC: true, LCEM: true, RequireBoundedRange: false}
	var checks int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, checks = pop.Place(plan, q, pol)
	}
	b.ReportMetric(float64(checks), "checkpoints")
}

// BenchmarkStudies regenerates each figure study (Figs. 11–16; fig15 is
// Figs. 15 and 16) at smoke size and reports the counts of its summary
// cell.
func BenchmarkStudies(b *testing.B) {
	env := harness.Env{TPCH: tpchFixture(b), DMVScale: 0.3, Smoke: true}
	for _, name := range []string{"fig11", "fig12", "fig13", "fig14", "fig15"} {
		b.Run(name, func(b *testing.B) {
			var rep *harness.Report
			for i := 0; i < b.N; i++ {
				var err error
				if rep, err = harness.RunStudies(name, env); err != nil {
					b.Fatal(err)
				}
			}
			cells := rep.Studies[0].Cells
			for _, n := range cells[len(cells)-1].Counts { // the summary cell
				b.ReportMetric(n.Value, n.Name)
			}
		})
	}
}

// --------------------------------------------------------------------------
// Ablations (DESIGN.md §4).

// fig11Run executes Q10-with-marker at the given l_quantity binding under
// the given policy and returns the total work and re-optimization count.
func fig11Run(b *testing.B, pol pop.Policy, qty float64) (float64, int) {
	b.Helper()
	cat := tpchFixture(b)
	q, err := tpch.Q10Param(cat)
	if err != nil {
		b.Fatal(err)
	}
	opts := pop.Options{Enabled: true, Policy: pol, MaxReopts: 3}
	res, err := pop.NewRunner(cat, opts).Run(q, []types.Datum{types.NewFloat(qty)})
	if err != nil {
		b.Fatal(err)
	}
	return res.Work, res.Reopts
}

// BenchmarkAblationThresholds compares validity-range check ranges against
// the ad-hoc fixed error thresholds of [KD98] in two regimes:
//
//   - high selectivity (qty=50): the plan must change. A loose fixed
//     threshold (1000x) misses the change entirely and runs the bad plan.
//   - mid selectivity (qty=2.5): the estimates are near-correct and the plan is
//     optimal. A tight fixed threshold (1.2x) still fires (some edge is always
//     slightly off) and re-optimizes needlessly; validity ranges hold.
func BenchmarkAblationThresholds(b *testing.B) {
	var wValidityHi, wLooseHi, wValidityMid, wTightMid float64
	var rValidityHi, rLooseHi, rValidityMid, rTightMid int
	for i := 0; i < b.N; i++ {
		wValidityHi, rValidityHi = fig11Run(b, pop.DefaultPolicy(), 50)
		pol := pop.DefaultPolicy()
		pol.FixedThresholdFactor = 1000
		wLooseHi, rLooseHi = fig11Run(b, pol, 50)

		wValidityMid, rValidityMid = fig11Run(b, pop.DefaultPolicy(), 2.5)
		pol = pop.DefaultPolicy()
		pol.FixedThresholdFactor = 1.2
		wTightMid, rTightMid = fig11Run(b, pol, 2.5)
	}
	b.ReportMetric(wValidityHi, "hi_work_validity")
	b.ReportMetric(wLooseHi, "hi_work_fixed1000x")
	b.ReportMetric(float64(rValidityHi), "hi_reopts_validity")
	b.ReportMetric(float64(rLooseHi), "hi_reopts_fixed1000x")
	b.ReportMetric(wValidityMid, "mid_work_validity")
	b.ReportMetric(wTightMid, "mid_work_fixed1.2x")
	b.ReportMetric(float64(rValidityMid), "mid_reopts_validity")
	b.ReportMetric(float64(rTightMid), "mid_reopts_fixed1.2x")
}

// BenchmarkAblationMVReuse measures the value of offering intermediate
// results to the optimizer as materialized views during re-optimization.
func BenchmarkAblationMVReuse(b *testing.B) {
	cat, qs := dmvFixture(b)
	q := qs[1].Query // triple-correlated combo: always re-optimizes
	var with, without float64
	for i := 0; i < b.N; i++ {
		res, err := pop.NewRunner(cat, pop.DefaultOptions()).Run(q, nil)
		if err != nil {
			b.Fatal(err)
		}
		with = res.Work
		opts := pop.DefaultOptions()
		opts.Configure = func(o *optimizer.Optimizer) { o.DisableMVReuse = true }
		res, err = pop.NewRunner(cat, opts).Run(q, nil)
		if err != nil {
			b.Fatal(err)
		}
		without = res.Work
	}
	b.ReportMetric(with, "work_with_reuse")
	b.ReportMetric(without, "work_without_reuse")
}

// BenchmarkAblationEagerVsLazy compares LCEM (lazy, materialize first)
// against ECB (eager, fire mid-buffer) on a plan whose outer blows up.
func BenchmarkAblationEagerVsLazy(b *testing.B) {
	cat, qs := dmvFixture(b)
	q := qs[1].Query
	var lazy, eager float64
	for i := 0; i < b.N; i++ {
		opts := pop.DefaultOptions() // LC + LCEM
		res, err := pop.NewRunner(cat, opts).Run(q, nil)
		if err != nil {
			b.Fatal(err)
		}
		lazy = res.Work
		opts = pop.DefaultOptions()
		opts.Policy.LCEM = false
		opts.Policy.ECB = true
		res, err = pop.NewRunner(cat, opts).Run(q, nil)
		if err != nil {
			b.Fatal(err)
		}
		eager = res.Work
	}
	b.ReportMetric(lazy, "work_LCEM")
	b.ReportMetric(eager, "work_ECB")
}

// --------------------------------------------------------------------------
// Engine micro-benchmarks: wall-clock sanity of the substrates.

// BenchmarkOptimizeQ5 measures full DP optimization (with validity-range
// sensitivity analysis) of a six-way join.
func BenchmarkOptimizeQ5(b *testing.B) {
	cat := tpchFixture(b)
	queries, err := tpch.Queries(cat)
	if err != nil {
		b.Fatal(err)
	}
	q := queries["Q5"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimizer.New(cat).Optimize(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeDMV compiles all 39 DMV queries cold (fresh optimizer, no
// feedback) per iteration: DP enumeration plus the validity-range search on
// joins up to ten tables wide — the optimizer's share of adaptive_dmv.
func BenchmarkOptimizeDMV(b *testing.B) {
	cat, qs := dmvFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, qi := range qs {
			if _, err := optimizer.New(cat).Optimize(qi.Query); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkOptimizeWide compiles a 64-table chain join with the default
// optimizer: past DP's table limit it takes the greedy chain, and this is
// that path's wall budget.
func BenchmarkOptimizeWide(b *testing.B) {
	cat := catalog.New()
	t, err := cat.CreateTable("t", schema.New(
		schema.Column{Name: "id", Type: types.KindInt},
		schema.Column{Name: "nxt", Type: types.KindInt},
	))
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		t.Heap.MustInsert(schema.Row{types.NewInt(i), types.NewInt((i * 7) % 100)})
	}
	if err := cat.AnalyzeAll(); err != nil {
		b.Fatal(err)
	}
	from, where := make([]string, 64), make([]string, 63)
	for i := range from {
		from[i] = fmt.Sprintf("t t%d", i)
	}
	for i := range where {
		where[i] = fmt.Sprintf("t%d.nxt = t%d.id", i, i+1)
	}
	q, err := sqlparse.Parse(cat, "SELECT t63.id FROM "+strings.Join(from, ", ")+" WHERE "+strings.Join(where, " AND "))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimizer.New(cat).Optimize(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteQ3 measures end-to-end execution of Q3 without POP.
func BenchmarkExecuteQ3(b *testing.B) {
	cat := tpchFixture(b)
	queries, err := tpch.Queries(cat)
	if err != nil {
		b.Fatal(err)
	}
	q := queries["Q3"]
	opt := optimizer.New(cat)
	plan, err := opt.Optimize(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err := executor.NewExecutor(cat, q, nil, opt.Model.Params, &executor.Meter{})
		if err != nil {
			b.Fatal(err)
		}
		root, err := ex.Build(plan)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := executor.Run(root); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchExecution times the Q10-shaped POP pipeline end to end;
// allocs/op and ns/op are what the batch protocol is accountable for, and
// work_units must not move with them.
func BenchmarkBatchExecution(b *testing.B) {
	cat := tpchFixture(b)
	q, err := tpch.Q10Param(cat)
	if err != nil {
		b.Fatal(err)
	}
	params := []types.Datum{types.NewFloat(25)}
	b.ReportAllocs()
	var res *pop.Result
	for i := 0; i < b.N; i++ {
		res, err = pop.NewRunner(cat, pop.DefaultOptions()).Run(q, params)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(res.Rows) == 0 {
		b.Fatal("Q10 produced no rows")
	}
	b.ReportMetric(res.Work, "work_units")
	b.ReportMetric(float64(len(res.Rows)), "rows")
}

// BenchmarkCachedQ10 is the serve_hot workload's engine path without the
// wire: the serving statement through one warmed cached runner configured as
// the server configures its sessions (the library's defaults, POP on), one
// binding of the 20 per operation. ns/op, B/op and allocs/op size executor work in process, where
// go run ./bench measures it through the server.
func BenchmarkCachedQ10(b *testing.B) {
	cat := catalog.New()
	if err := tpch.Load(cat, tpch.DefaultConfig()); err != nil {
		b.Fatal(err)
	}
	q, err := sqlparse.Parse(cat, tpch.Q10SQL)
	if err != nil {
		b.Fatal(err)
	}
	runner := pop.NewRunner(cat, pop.DefaultOptions())
	runner.Cache = pop.NewCache()
	bindings := make([][]types.Datum, 20)
	for i := range bindings {
		bindings[i] = []types.Datum{types.NewFloat(2.5 * float64(i+1))}
	}
	for _, params := range bindings {
		if _, err := runner.Run(q, params); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(q, bindings[i%len(bindings)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectivityEstimation measures predicate selectivity estimation
// against histograms and MCVs.
func BenchmarkSelectivityEstimation(b *testing.B) {
	vals := make([]types.Datum, 100000)
	for i := range vals {
		vals[i] = types.NewInt(int64(i % 1000))
	}
	cs := stats.BuildColumnStats(vals, stats.DefaultBucketCount)
	lk := func(int) *stats.ColumnStats { return cs }
	pred := &expr.Logic{Op: expr.And, Args: []expr.Expr{
		&expr.Cmp{Op: expr.LT, L: &expr.ColRef{Pos: 0}, R: &expr.Const{Val: types.NewInt(500)}},
		&expr.Cmp{Op: expr.EQ, L: &expr.ColRef{Pos: 1}, R: &expr.Const{Val: types.NewInt(3)}},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.Selectivity(pred, lk)
	}
}
