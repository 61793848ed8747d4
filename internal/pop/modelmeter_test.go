package pop

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
)

// meterException names the operators whose metered work is not their modeled
// cost at the actual cardinalities on purpose, with the work they charge
// instead. Everything else must agree.
func meterException(sn *executor.StatsNode, pr *optimizer.CostParams) (want float64, reason string) {
	p := sn.Plan
	switch {
	case p.Op == optimizer.OpCheck:
		switch p.Children[0].Op {
		case optimizer.OpSort, optimizer.OpTemp, optimizer.OpHashAgg:
			// A CHECK over a completed materialization validates its count
			// once (paper §3: lazy checks cost a context switch, not a pass
			// over the rows); the model charges CheckRow per row so that the
			// check's cost still grows with the edge it guards.
			return pr.CheckRow, "validated once against the materialized count"
		}
		// A counting CHECK pays one more CheckRow at end of stream, where the
		// lower bound is tested.
		return sn.Model + pr.CheckRow, "end-of-stream lower-bound test"
	case p.Op == optimizer.OpMVScan && p.Cost == 0 && p.Card > 0:
		// ForceMVReuse (§7 termination heuristic) models the view as free so
		// it always wins; reading it is still charged.
		return p.Card * pr.TempRead, "MVSCAN forced at zero cost"
	}
	return sn.Model, ""
}

// meterAudit accumulates the model ≡ meter comparison over many executions.
type meterAudit struct {
	pr                 optimizer.CostParams
	nodes, exceptions  int
	ops                map[string]int // operators compared, by label kind
	bad                []string
	probes             int
	estFetch, metFetch float64 // index-NLJN fetched rows: estimated at the actual probes, metered
}

// opKind is the operator's EXPLAIN name with the variant that decides its cost
// formula.
func opKind(p *optimizer.Plan, probe bool) string {
	switch {
	case p.Op == optimizer.OpIndexScan && probe:
		return "IXSCAN[probe]"
	case p.Op == optimizer.OpIndexScan && p.IndexLo == nil && p.IndexHi == nil:
		return "IXSCAN[full]"
	case p.Op == optimizer.OpIndexScan:
		return "IXSCAN[sarg]"
	case p.Op == optimizer.OpNLJN && p.IndexJoin:
		return "NLJN[index]"
	}
	return p.Op.String()
}

// audit compares every operator under sn that ran to completion. probeOf is
// the index NLJN whose probe edge sn is, if it is one.
func (a *meterAudit) audit(key string, q *logical.Query, sn *executor.StatsNode, probeOf *executor.StatsNode) {
	p, s := sn.Plan, &sn.Stats
	done := s.Opened && s.Done
	kind := opKind(p, probeOf != nil)
	if done {
		want, reason := meterException(sn, &a.pr)
		a.nodes++
		a.ops[kind]++
		if reason != "" {
			a.exceptions++
		}
		if math.Abs(s.Work-want) > 1e-6*math.Max(want, 1) {
			a.bad = append(a.bad, fmt.Sprintf("%s: %s metered %.6f, modeled %.6f at actual cardinalities (%s)",
				key, optimizer.NodeLabel(p, q), s.Work, want, reason))
		}
	}
	if done && kind == "IXSCAN[full]" && math.Abs(s.Work-p.Cost) > 1e-6*p.Cost {
		// Like a table scan's, a full index scan's cost holds no estimate, so
		// the plan's own number is what one pass must charge.
		a.bad = append(a.bad, fmt.Sprintf("%s: %s metered %.6f, costed %.6f", key, optimizer.NodeLabel(p, q), s.Work, p.Cost))
	}
	if done && probeOf != nil {
		// The estimate clause: what the optimizer believed one probe fetches,
		// read back out of the probe's per-probe cost, at the probes that
		// actually happened.
		probes := probeOf.Children[0].Stats.RowsOut
		perRow := a.pr.FetchRow + float64(len(expr.Conjuncts(p.Filter)))*a.pr.PredEval
		descents := sn.Model - s.Fetched*perRow // probes × levels × IndexLevel
		est := (probes*p.Cost - descents) / perRow
		a.probes++
		a.estFetch += est
		a.metFetch += s.Fetched
		// Under a hundred rows the ratio is sampling noise, not formula.
		if hi, lo := math.Max(est, s.Fetched), math.Min(est, s.Fetched); hi >= 100 && hi > 1.25*lo {
			a.bad = append(a.bad, fmt.Sprintf("%s: %s estimated %.0f rows fetched in %.0f probes, metered %.0f",
				key, optimizer.NodeLabel(p, q), est, probes, s.Fetched))
		}
	}
	for i, c := range sn.Children {
		var po *executor.StatsNode
		if p.Op == optimizer.OpNLJN && p.IndexJoin && i == 1 {
			po = sn
		}
		a.audit(key, q, c, po)
	}
}

func (a *meterAudit) run(t *testing.T, key string, cat *catalog.Catalog, q *logical.Query, opts Options) {
	t.Helper()
	opts.Analyze = true
	res, err := NewRunner(cat, opts).Run(q, nil)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	for i, at := range res.Attempts {
		a.audit(fmt.Sprintf("%s attempt=%d", key, i), q, at.Stats, nil)
	}
}

// TestModelEqualsMeter asserts the sentence optimizer/cost.go and
// executor/executor.go both open with: an operator's metered work is its
// modeled cost evaluated at the actual cardinalities. For every operator that
// ran to completion in every attempt of the 39 DMV and nine TPC-H statements
// under dp-pop and greedy-pop, of the TPC-H nine planned without hash joins
// (as Figure 12 plans them: the one place merge joins, sorts and full index
// scans are chosen), of the correlated fixture planned with hash joins only,
// and of three single-table statements, two served by a sargable index
// scan, StatsNode.Model — CostModel's own-cost terms
// at the observed input and output cardinalities — equals the charged Work
// within 1e-6 relative, meterException's short list aside.
// The estimate clause covers the one term actual cardinalities cannot expose,
// because no edge carries it: the rows an index NLJN's key fetches per probe.
func TestModelEqualsMeter(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full DMV and TPC-H workloads")
	}
	a := &meterAudit{pr: optimizer.DefaultCostParams(), ops: map[string]int{}}
	var tcat *catalog.Catalog
	for _, w := range identityWorkloads(t) {
		for _, strat := range []Strategy{DPPOP, GreedyPOP} {
			for _, name := range w.names {
				opts := DefaultOptions()
				opts.Planner = strat
				a.run(t, fmt.Sprintf("%s %s %s", w.db, strat.Name(), name), w.cat, w.queries[name], opts)
			}
		}
		if w.db != "tpch" {
			continue
		}
		tcat = w.cat
		for _, name := range w.names {
			opts := DefaultOptions()
			opts.Configure = func(o *optimizer.Optimizer) { o.DisableHSJN = true }
			a.run(t, "tpch no-hsjn "+name, w.cat, w.queries[name], opts)
		}
	}
	ccat := correlatedFixture(t)
	hashOnly := DefaultOptions()
	hashOnly.Configure = forceHash
	a.run(t, "correlated hash-only", ccat, correlatedQuery(t, ccat), hashOnly)

	for i, sql := range []string{
		"select o_orderkey from orders where o_orderkey < 200",
		"select o_orderkey from orders where o_orderkey >= 100 and o_orderkey <= 400 and o_totalprice > 100000",
		"select c_name from customer where c_mktsegment = 'BUILDING' and c_acctbal > 0",
	} {
		q, err := sqlparse.Parse(tcat, sql)
		if err != nil {
			t.Fatal(err)
		}
		a.run(t, fmt.Sprintf("tpch single-table #%d", i), tcat, q, DefaultOptions())
	}

	kinds := make([]string, 0, len(a.ops))
	for k, n := range a.ops {
		kinds = append(kinds, fmt.Sprintf("%s×%d", k, n))
	}
	sort.Strings(kinds)
	t.Logf("%d operators compared (%d under a listed exception): %s", a.nodes, a.exceptions, strings.Join(kinds, " "))
	t.Logf("index-NLJN probe edges: %d, fetched rows estimated %.0f vs metered %.0f", a.probes, a.estFetch, a.metFetch)
	for _, want := range []string{"TBSCAN", "IXSCAN[sarg]", "IXSCAN[full]", "IXSCAN[probe]", "MVSCAN",
		"NLJN[index]", "NLJN", "HSJN", "MGJN", "SORT", "TEMP", "GRPBY", "RETURN", "CHECK"} {
		if a.ops[want] == 0 {
			t.Errorf("no %s ran to completion: the workloads no longer cover it", want)
		}
	}
	if math.Abs(a.estFetch-a.metFetch) > 0.02*a.metFetch {
		t.Errorf("index-NLJN fetched rows in total: estimated %.0f, metered %.0f (> 2%% apart)", a.estFetch, a.metFetch)
	}
	if len(a.bad) > 0 {
		t.Errorf("%d operators disagree with the cost model:\n%s", len(a.bad), strings.Join(a.bad, "\n"))
	}
}

// spearman is the rank correlation of two equally long samples (no tie
// correction: plan costs and work totals do not tie).
func spearman(x, y []float64) float64 {
	rank := func(v []float64) []float64 {
		idx := make([]int, len(v))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
		r := make([]float64, len(v))
		for pos, i := range idx {
			r[i] = float64(pos)
		}
		return r
	}
	rx, ry := rank(x), rank(y)
	n, d2 := float64(len(x)), 0.0
	for i := range rx {
		d2 += (rx[i] - ry[i]) * (rx[i] - ry[i])
	}
	return 1 - 6*d2/(n*(n*n-1))
}

// TestPlanCostPredictsWork pins what model ≡ meter buys at the level a plan is
// chosen at. When the estimates are right — the nine TPC-H statements run
// without a re-optimization — the work of the attempt that produced the answer
// stays within 1.5× of its estimated plan cost (the under-costed index probe
// had Q7 at 502×). On DMV, where they are not, the plan's estimated cost must
// still rank the statements by the work their final attempt does: Spearman
// ρ ≥ 0.9 over the 39.
func TestPlanCostPredictsWork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full DMV and TPC-H workloads")
	}
	for _, w := range identityWorkloads(t) {
		for _, strat := range []Strategy{DPPOP, GreedyPOP} {
			var cost, work []float64
			for _, name := range w.names {
				opts := DefaultOptions()
				opts.Planner = strat
				res, err := NewRunner(w.cat, opts).Run(w.queries[name], nil)
				if err != nil {
					t.Fatalf("%s %s %s: %v", w.db, strat.Name(), name, err)
				}
				last := res.Attempts[len(res.Attempts)-1]
				cost = append(cost, last.Plan.Cost)
				work = append(work, res.Work-last.WorkBefore)
				if ratio := (res.Work - last.WorkBefore) / last.Plan.Cost; w.db == "tpch" && ratio > 1.5 {
					t.Errorf("%s %s %s: final attempt metered %.0f, %.1f× its estimated cost %.0f",
						w.db, strat.Name(), name, res.Work-last.WorkBefore, ratio, last.Plan.Cost)
				}
			}
			rho := spearman(cost, work)
			t.Logf("%s %s: ρ(plan cost, metered work) = %.3f over %d statements", w.db, strat.Name(), rho, len(cost))
			if w.db == "dmv" && rho < 0.9 {
				t.Errorf("dmv %s: ρ(plan cost, metered work) = %.3f, want ≥ 0.9", strat.Name(), rho)
			}
		}
	}
}
