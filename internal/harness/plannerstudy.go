package harness

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/catalog"
	"repro/internal/dmv"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/pop"
	"repro/internal/schema"
	"repro/internal/tpch"
	"repro/internal/types"
)

// This file is the planner shootout (the "planners" study): every built-in
// pop.Strategy runs the TPC-H query set, the DMV correlation workload and an
// adversarial skew substrate (zipfian join keys + correlated predicates),
// all through a per-strategy plan cache. The study reports, per strategy,
// candidate counts on the TPC-H join queries plus execution work,
// re-optimization counts and cache/guard verdicts per workload — the data
// behind "which planner when" (DESIGN.md §13).

// skewNumCats is the category-domain size of the skew substrate; the
// correlated predicate pair (d_cat = c AND d_pop <= c) and the key-implied
// category make the independence assumption mis-estimate scans and joins by
// up to about this factor.
const skewNumCats = 16

// skewConfig sizes the adversarial skew substrate.
type skewConfig struct {
	dims  int
	facts int
	seed  int64
}

// skewSizes returns the substrate size for the study mode.
func skewSizes(smoke bool) skewConfig {
	if smoke {
		// Large enough that plan costs clear the checkpoint floor
		// (Policy.MinPlanCost), so the smoke run exercises re-optimization.
		return skewConfig{dims: 1200, facts: 12000, seed: 23}
	}
	return skewConfig{dims: 4000, facts: 40000, seed: 23}
}

// loadSkew builds the adversarial skew substrate: a dimension table ZDIM, a
// fact table ZFACT whose join key is drawn from a zipfian distribution over
// the dimension ids (low ids are hot) and whose category is correlated with
// the key (f_cat = f_key mod skewNumCats 90% of the time), and a tiny
// category dimension ZCAT the queries route the fact side through.
// Histograms see a mild key skew and independent-looking category columns;
// the actual mass of the three-way join varies by orders of magnitude with
// the binding — exactly the estimate-vs-actual gap adaptive strategies
// differ on, and it crosses a checkpointable intermediate edge because the
// mis-estimated two-way join feeds the third join rather than the root.
func loadSkew(cat *catalog.Catalog, cfg skewConfig) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(cfg.dims-1))

	zdim, err := cat.CreateTable("zdim", schema.New(
		schema.Column{Name: "d_id", Type: types.KindInt},
		schema.Column{Name: "d_cat", Type: types.KindInt},
		schema.Column{Name: "d_pop", Type: types.KindFloat},
	))
	if err != nil {
		return err
	}
	for i := 0; i < cfg.dims; i++ {
		zdim.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % skewNumCats)),
			// d_pop tracks the category: equi-depth histograms on d_cat and
			// d_pop are each accurate alone, but their product is wildly off
			// for the pair (d_cat = c AND d_pop <= c).
			types.NewFloat(float64(i%skewNumCats) + rng.Float64() - 0.5),
		})
	}

	zfact, err := cat.CreateTable("zfact", schema.New(
		schema.Column{Name: "f_id", Type: types.KindInt},
		schema.Column{Name: "f_key", Type: types.KindInt},
		schema.Column{Name: "f_cat", Type: types.KindInt},
		schema.Column{Name: "f_val", Type: types.KindFloat},
	))
	if err != nil {
		return err
	}
	for i := 0; i < cfg.facts; i++ {
		key := int64(zipf.Uint64())
		fcat := key % skewNumCats
		if rng.Float64() >= 0.9 {
			fcat = int64(rng.Intn(skewNumCats)) // the 10% that break the correlation
		}
		zfact.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			types.NewInt(key),
			types.NewInt(fcat),
			types.NewFloat(rng.Float64()),
		})
	}

	zcat, err := cat.CreateTable("zcat", schema.New(
		schema.Column{Name: "c_id", Type: types.KindInt},
		schema.Column{Name: "c_name", Type: types.KindString},
		schema.Column{Name: "c_rank", Type: types.KindInt},
	))
	if err != nil {
		return err
	}
	for i := 0; i < skewNumCats; i++ {
		zcat.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("CAT_%02d", i)),
			types.NewInt(int64(i % 4)),
		})
	}

	for _, ix := range [][3]string{
		{"zdim_id", "zdim", "d_id"},
		{"zfact_key", "zfact", "f_key"},
		{"zfact_cat", "zfact", "f_cat"},
		{"zcat_id", "zcat", "c_id"},
	} {
		if _, err := cat.CreateBTreeIndex(ix[0], ix[1], ix[2]); err != nil {
			return err
		}
	}
	return cat.AnalyzeAll()
}

// skewCorrQuery is the correlated-predicate probe: COUNT(*) over the
// three-way join zdim ⋈ zfact ⋈ zcat restricted by the correlated pair
// d_cat = ?0 AND d_pop <= ?1 (bound to the same category value). The pair is
// near-redundant — d_pop tracks d_cat — so the independence assumption
// mis-estimates the zdim scan by up to ~8× in either direction depending on
// the binding, and that scan is exactly where POP checkpoints (it is the
// materialized outer of the index join into zfact). The zipfian key then
// makes the downstream join mass per category wildly uneven, and the
// unrestricted zcat dimension hangs off f_cat so the mis-estimated
// intermediate crosses a second join edge instead of hiding at the root.
func skewCorrQuery(cat *catalog.Catalog) (*logical.Query, error) {
	b := logical.NewBuilder(cat)
	b.AddTable("zdim", "d")
	b.AddTable("zfact", "f")
	b.AddTable("zcat", "c")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("d", "d_id"), R: b.Col("f", "f_key")})
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("f", "f_cat"), R: b.Col("c", "c_id")})
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("d", "d_cat"), R: b.Param(0)})
	b.Where(&expr.Cmp{Op: expr.LE, L: b.Col("d", "d_pop"), R: b.Param(1)})
	b.SelectAgg(logical.AggCount, nil, "n")
	return b.Build()
}

// skewHotQuery is the hot-key range probe: total fact value per category
// name for join keys up to a threshold. Small thresholds cover the zipf
// head — a tiny key range carrying a huge share of the fact rows — so the
// intermediate cardinality swings by orders of magnitude with the binding,
// exercising the plan cache's validity guards across the sweep.
func skewHotQuery(cat *catalog.Catalog) (*logical.Query, error) {
	b := logical.NewBuilder(cat)
	b.AddTable("zdim", "d")
	b.AddTable("zfact", "f")
	b.AddTable("zcat", "c")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("d", "d_id"), R: b.Col("f", "f_key")})
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("f", "f_cat"), R: b.Col("c", "c_id")})
	b.Where(&expr.Cmp{Op: expr.LE, L: b.Col("f", "f_key"), R: b.Param(0)})
	b.SelectCol("c", "c_name")
	b.SelectAgg(logical.AggSum, b.Col("f", "f_val"), "v")
	b.GroupBy(b.Col("c", "c_name"))
	return b.Build()
}

// plannerExec is one statement execution of the shootout's workload script.
type plannerExec struct {
	q      *logical.Query
	params []types.Datum
}

// plannerWorkloadNames is the fixed report order.
var plannerWorkloadNames = []string{"tpch", "dmv", "skew"}

// plannerWorkloads builds the three workload scripts. Each script is a flat
// execution list; two passes over each statement mix cold (miss) and warm
// (hit or guard-reject) cache behavior.
func plannerWorkloads(tpchCat, dmvCat, skewCat *catalog.Catalog, smoke bool) (map[string][]plannerExec, error) {
	out := make(map[string][]plannerExec)

	// TPC-H: the named query set plus the parameterized Q10 sweep.
	tq, err := tpch.Queries(tpchCat)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(tq))
	for n := range tq {
		names = append(names, n)
	}
	sort.Strings(names)
	if smoke {
		names = []string{"Q3", "Q5", "Q10"}
	}
	var tpchScript []plannerExec
	for _, n := range names {
		tpchScript = append(tpchScript, plannerExec{q: tq[n]})
	}
	q10, err := tpch.Q10Param(tpchCat)
	if err != nil {
		return nil, err
	}
	bindings := planCacheBindings()
	if smoke {
		bindings = bindings[:4]
	}
	for _, qty := range bindings {
		tpchScript = append(tpchScript, plannerExec{q: q10, params: []types.Datum{types.NewFloat(qty)}})
	}
	out["tpch"] = doublePass(tpchScript)

	// DMV: the correlated decision-support workload.
	dq, err := dmv.Queries(dmvCat)
	if err != nil {
		return nil, err
	}
	if smoke && len(dq) > 6 {
		dq = dq[:6]
	}
	var dmvScript []plannerExec
	for _, qi := range dq {
		dmvScript = append(dmvScript, plannerExec{q: qi.Query})
	}
	out["dmv"] = doublePass(dmvScript)

	// Skew: the correlated-category sweep and the hot-key range sweep.
	corr, err := skewCorrQuery(skewCat)
	if err != nil {
		return nil, err
	}
	hot, err := skewHotQuery(skewCat)
	if err != nil {
		return nil, err
	}
	cats := skewNumCats
	thresholds := []int64{1, 4, 16, 64, 256, 1024, 4096}
	if smoke {
		cats = 4
		thresholds = []int64{1, 16, 256}
	}
	var skewScript []plannerExec
	for c := 0; c < cats; c++ {
		skewScript = append(skewScript, plannerExec{q: corr,
			params: []types.Datum{types.NewInt(int64(c)), types.NewFloat(float64(c))}})
	}
	maxKey := int64(skewSizes(smoke).dims)
	for _, th := range thresholds {
		if th > maxKey {
			break
		}
		skewScript = append(skewScript, plannerExec{q: hot, params: []types.Datum{types.NewInt(th)}})
	}
	out["skew"] = doublePass(skewScript)
	return out, nil
}

// doublePass repeats a script so every statement runs cold then warm.
func doublePass(script []plannerExec) []plannerExec {
	return append(append([]plannerExec(nil), script...), script...)
}

// plannerStudy runs the shootout. The "<strategy>/planning" cells count the
// candidates one optimization of each TPC-H join query (>= 4 tables, where
// the DP space is large enough that enumeration dominates planning) costs
// under the strategy's planner; the "<strategy>/<workload>" cells run the
// three workloads through a plan cache and a metrics registry of their own,
// so hits, invalidations and guard rejects are attributable. The TPC-H
// catalog is the caller's; the DMV and skew substrates are built here.
func plannerStudy(env Env) ([]Cell, error) {
	dmvCat := catalog.New()
	if err := dmv.Load(dmvCat, dmv.Config{Scale: env.DMVScale, Seed: 17}); err != nil {
		return nil, err
	}
	skewCat := catalog.New()
	if err := loadSkew(skewCat, skewSizes(env.Smoke)); err != nil {
		return nil, err
	}
	cats := map[string]*catalog.Catalog{"tpch": env.TPCH, "dmv": dmvCat, "skew": skewCat}
	workloads, err := plannerWorkloads(env.TPCH, dmvCat, skewCat, env.Smoke)
	if err != nil {
		return nil, err
	}

	tq, err := tpch.Queries(env.TPCH)
	if err != nil {
		return nil, err
	}
	var joinNames []string
	for n, q := range tq {
		if len(q.Tables) >= 4 {
			joinNames = append(joinNames, n)
		}
	}
	sort.Strings(joinNames)

	var cells []Cell
	for _, st := range pop.Strategies() {
		candidates := 0
		for _, name := range joinNames {
			opt := optimizer.New(env.TPCH)
			st.PlanConfig(opt)
			if _, err := opt.Optimize(tq[name]); err != nil {
				return nil, fmt.Errorf("%s planning %s: %w", st.Name(), name, err)
			}
			candidates += opt.EnumeratedCandidates
		}
		cells = append(cells, Cell{st.Name() + "/planning", []Count{
			{"queries", float64(len(joinNames))},
			{"candidates", float64(candidates)},
		}})
	}
	for _, wname := range plannerWorkloadNames {
		for _, st := range pop.Strategies() {
			reg := metrics.New()
			opts := pop.DefaultOptions()
			opts.Planner = st
			opts.Trace = reg
			runner := pop.NewRunner(cats[wname], opts)
			runner.Cache = pop.NewCache()
			var t tally
			var v verdicts
			for _, ex := range workloads[wname] {
				r, err := runner.Run(ex.q, ex.params)
				if err != nil {
					return nil, fmt.Errorf("%s on %s: %w", st.Name(), wname, err)
				}
				t.add(r)
				v.add(r.Cache)
			}
			counts := append(t.counts(), v.counts(runner.Cache)...)
			counts = append(counts, Count{"guard_rejects", float64(reg.Snapshot().CacheGuardRejects)})
			cells = append(cells, Cell{st.Name() + "/" + wname, counts})
		}
	}
	return cells, nil
}
