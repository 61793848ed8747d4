// Package harness runs the paper's experiments and the plan-quality studies
// as entries of one study registry (studies.go). Each figure of the
// evaluation (§5, §6) is a study whose cells hold the figure's numbers; a
// "summary" cell holds its headline numbers. All measurements are in
// deterministic simulated work units (see DESIGN.md): identical inputs
// reproduce identical numbers on any machine.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/dmv"
	"repro/internal/executor"
	"repro/internal/optimizer"
	"repro/internal/pop"
	"repro/internal/tpch"
	"repro/internal/types"
)

// ---------------------------------------------------------------------------
// Figure 11 — robustness of TPC-H Q10 under a parameter marker.

// fig11Study sweeps the actual selectivity of the LINEITEM predicate of Q10
// from low to high, comparing POP-with-default-estimate against the static
// default plan and the correct-estimate optimal plan (paper Figure 11). The
// summary counts the distinct optimal join structures the sweep passes
// through (paper: 5).
func fig11Study(env Env) ([]Cell, error) {
	cat := env.TPCH
	steps := 10
	if env.Smoke {
		steps = 5
	}
	qParam, err := tpch.Q10Param(cat)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	shapes := map[string]bool{}
	for s := 1; s <= steps; s++ {
		// Quadratic spacing concentrates points at low selectivities, where
		// the optimal plan transitions between index NLJN and hash join.
		frac := float64(s) / float64(steps)
		pct := frac * frac * 100
		qty := pct / 100 * 50 // l_quantity uniform on [1,50]
		params := []types.Datum{types.NewFloat(qty)}

		popRes, err := pop.NewRunner(cat, pop.DefaultOptions()).Run(qParam, params)
		if err != nil {
			return nil, fmt.Errorf("POP at %.0f%%: %w", pct, err)
		}
		noPopRes, err := pop.NewRunner(cat, pop.Options{Enabled: false}).Run(qParam, params)
		if err != nil {
			return nil, fmt.Errorf("static at %.0f%%: %w", pct, err)
		}
		qLit, err := tpch.Q10Literal(cat, qty)
		if err != nil {
			return nil, err
		}
		optRes, err := pop.NewRunner(cat, pop.Options{Enabled: false}).Run(qLit, nil)
		if err != nil {
			return nil, fmt.Errorf("optimal at %.0f%%: %w", pct, err)
		}
		shapes[planShape(optRes.Attempts[0].Plan)] = true
		cells = append(cells, Cell{fmt.Sprintf("sel %.0f%%", pct), []Count{
			{"selectivity_pct", pct},
			{"pop_default", popRes.Work},
			{"static_default", noPopRes.Work},
			{"optimal", optRes.Work},
			{"reopts", float64(popRes.Reopts)},
		}})
	}
	return append(cells, Cell{"summary", []Count{{"distinct_optimal_plans", float64(len(shapes))}}}), nil
}

// planShape summarizes the join-operator structure of a plan, used to count
// how many distinct optimal plans the sweep passes through.
func planShape(p *optimizer.Plan) string {
	var parts []string
	p.Walk(func(n *optimizer.Plan) {
		if n.Op.IsJoin() {
			s := n.Op.String()
			if n.Op == optimizer.OpNLJN && n.IndexJoin {
				s += "ix"
			}
			parts = append(parts, s)
		}
	})
	return strings.Join(parts, ">")
}

// ---------------------------------------------------------------------------
// Figure 12 — overhead of LC re-optimization (dummy reopt, hash join
// disabled to create SORT materialization points).

// fig12Queries are the queries the paper uses for the LC overhead study.
var fig12Queries = []string{"Q3", "Q4", "Q5", "Q7", "Q9"}

// fig12Study measures the overhead of lazy-check re-optimization: each query
// runs once normally and once per checkpoint with a forced failure there.
// A cell is one bar, "<query>/check<id>"; its normalized total shows the
// overhead (paper: ~2-3%).
func fig12Study(env Env) ([]Cell, error) {
	queries, err := tpch.Queries(env.TPCH)
	if err != nil {
		return nil, err
	}
	// The paper disables hash join for this experiment so the optimizer
	// generates lots of materialization points; we additionally disable the
	// index nested-loop join, which in this engine would otherwise avoid the
	// sorts the merge joins need.
	noHash := func(o *optimizer.Optimizer) { o.DisableHSJN = true; o.DisableIndexJoin = true }
	var cells []Cell
	var sum float64
	for _, name := range fig12Queries {
		q := queries[name]
		basePol := pop.Policy{LC: true, RequireBoundedRange: false}
		baseOpts := pop.Options{Enabled: true, Policy: basePol, MaxReopts: 3, Configure: noHash}
		base, err := pop.NewRunner(env.TPCH, baseOpts).Run(q, nil)
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", name, err)
		}
		if base.Reopts != 0 {
			return nil, fmt.Errorf("%s baseline unexpectedly re-optimized", name)
		}
		// Trigger from up to the first two checkpoints (the paper's "a"/"b").
		limit := min(base.Attempts[0].Checks, 2)
		for id := 0; id < limit; id++ {
			pol := basePol
			pol.FailCheckIDs = map[int]bool{id: true}
			opts := pop.Options{Enabled: true, Policy: pol, MaxReopts: 3, Configure: noHash}
			res, err := pop.NewRunner(env.TPCH, opts).Run(q, nil)
			if err != nil {
				return nil, fmt.Errorf("%s check %d: %w", name, id, err)
			}
			if res.Reopts == 0 {
				continue // checkpoint never reached in this plan
			}
			before, normalized := res.Attempts[1].WorkBefore, res.Work/base.Work
			sum += normalized
			cells = append(cells, Cell{fmt.Sprintf("%s/check%d", name, id), []Count{
				{"baseline", base.Work},
				{"before", before},
				{"after", res.Work - before},
				{"normalized", normalized},
			}})
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("no checkpoint reached")
	}
	return append(cells, Cell{"summary", []Count{
		{"bars", float64(len(cells))},
		{"mean_normalized", sum / float64(len(cells))},
	}}), nil
}

// ---------------------------------------------------------------------------
// Figure 13 — cost of LCEM eager materialization without re-optimization.

// fig13Study adds LCEM check/materialization points on the outer of every
// NLJN and measures the added cost with re-optimization disabled, one cell
// per query (paper: the overhead is negligible because NLJN outers are small
// when NLJN wins).
func fig13Study(env Env) ([]Cell, error) {
	queries, err := tpch.Queries(env.TPCH)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	var worst float64
	for _, name := range fig12Queries {
		q := queries[name]
		plain, err := pop.NewRunner(env.TPCH, pop.Options{Enabled: false}).Run(q, nil)
		if err != nil {
			return nil, fmt.Errorf("%s plain: %w", name, err)
		}
		pol := pop.Policy{LCEM: true, RequireBoundedRange: false, Unchecked: true}
		res, err := pop.NewRunner(env.TPCH, pop.Options{Enabled: true, Policy: pol, MaxReopts: 3}).Run(q, nil)
		if err != nil {
			return nil, fmt.Errorf("%s LCEM: %w", name, err)
		}
		overhead := res.Work / plain.Work
		worst = max(worst, overhead)
		cells = append(cells, Cell{name, []Count{
			{"plain", plain.Work},
			{"with_lcem", res.Work},
			{"overhead", overhead},
			{"lcems", float64(res.Attempts[0].Checks)},
		}})
	}
	return append(cells, Cell{"summary", []Count{{"max_overhead", worst}}}), nil
}

// ---------------------------------------------------------------------------
// Figure 14 — checkpoint opportunities over query execution.

// fig14Queries match the paper's Figure 14.
var fig14Queries = []string{"Q2", "Q3", "Q4", "Q5", "Q7", "Q8", "Q11", "Q18"}

// fig14Point is one checkpoint's observed timing, as fractions of the
// query's total work. ECB checkpoints span a range (start..end); the others
// are instants (start == end).
type fig14Point struct {
	query, flavor string
	start, end    float64
}

// fig14Study places every checkpoint flavor with firing disabled and records
// when each checkpoint is encountered during execution. A query can meet
// the same flavor at several sites, so a cell is named
// "<query> <flavor> #<n>", the n-th such checkpoint in execution order.
func fig14Study(env Env) ([]Cell, error) {
	queries, err := tpch.Queries(env.TPCH)
	if err != nil {
		return nil, err
	}
	var points []fig14Point
	policies := []pop.Policy{
		{LC: true, LCEM: true, RequireBoundedRange: false, Unchecked: true},
		{ECB: true, RequireBoundedRange: false, Unchecked: true},
	}
	for _, name := range fig14Queries {
		q := queries[name]
		for pi, pol := range policies {
			opts := pop.Options{Enabled: true, Policy: pol, MaxReopts: 3, Analyze: true}
			res, err := pop.NewRunner(env.TPCH, opts).Run(q, nil)
			if err != nil {
				return nil, fmt.Errorf("%s policy %d: %w", name, pi, err)
			}
			if res.Work <= 0 {
				continue
			}
			res.Attempts[len(res.Attempts)-1].Stats.Walk(func(sn *executor.StatsNode) {
				meta, st := sn.Plan.Check, sn.Stats
				if sn.Plan.Op != optimizer.OpCheck || meta == nil || !st.Touched {
					return
				}
				start := st.FirstWork / res.Work
				end := st.DoneWork / res.Work
				if meta.Flavor != optimizer.ECB {
					end = start
				}
				flavor := meta.Flavor.String()
				if meta.Where != "" {
					flavor += " (" + meta.Where + ")"
				}
				points = append(points, fig14Point{name, flavor, start, end})
			})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].query != points[j].query {
			return points[i].query < points[j].query
		}
		return points[i].start < points[j].start
	})
	var cells []Cell
	seen := map[string]int{}
	early := 0
	for _, p := range points {
		key := p.query + " " + p.flavor
		seen[key]++
		if p.start < 0.5 {
			early++
		}
		cells = append(cells, Cell{fmt.Sprintf("%s #%d", key, seen[key]), []Count{
			{"start", p.start},
			{"end", p.end},
		}})
	}
	return append(cells, Cell{"summary", []Count{
		{"opportunities", float64(len(points))},
		{"in_first_half", float64(early)},
	}}), nil
}

// ---------------------------------------------------------------------------
// Figures 15 & 16 — the DMV case study.

// fig15Study runs the DMV workload with and without POP on a DMV database
// of its own at env.DMVScale (the first 10 queries at smoke size, else all
// 39). A query's cell is one Figure 15 scatter point plus its Figure 16
// factor: >1 is a speedup, <-1 a regression (the paper's signed
// convention). The summary holds Figure 16's headline numbers; a factor
// within 1.02 either way is neutral.
func fig15Study(env Env) ([]Cell, error) {
	cat := catalog.New()
	if err := dmv.Load(cat, dmv.Config{Scale: env.DMVScale, Seed: 17}); err != nil {
		return nil, err
	}
	qs, err := dmv.Queries(cat)
	if err != nil {
		return nil, err
	}
	if env.Smoke {
		qs = qs[:10]
	}
	var cells []Cell
	var improved, regressed, neutral, reopts int
	maxSpeedup, maxRegression := 1.0, 1.0
	for _, qi := range qs {
		off, err := pop.NewRunner(cat, pop.Options{Enabled: false}).Run(qi.Query, nil)
		if err != nil {
			return nil, fmt.Errorf("%s static: %w", qi.Name, err)
		}
		on, err := pop.NewRunner(cat, pop.DefaultOptions()).Run(qi.Query, nil)
		if err != nil {
			return nil, fmt.Errorf("%s POP: %w", qi.Name, err)
		}
		factor := off.Work / on.Work
		if factor < 1 && factor > 0 {
			factor = -on.Work / off.Work
		}
		switch {
		case factor > 1.02:
			improved++
			maxSpeedup = max(maxSpeedup, factor)
		case factor < -1.02:
			regressed++
			maxRegression = max(maxRegression, -factor)
		default:
			neutral++
		}
		reopts += on.Reopts
		cells = append(cells, Cell{qi.Name, []Count{
			{"without_pop", off.Work},
			{"with_pop", on.Work},
			{"reopts", float64(on.Reopts)},
			{"factor", factor},
		}})
	}
	return append(cells, Cell{"summary", []Count{
		{"improved", float64(improved)},
		{"regressed", float64(regressed)},
		{"neutral", float64(neutral)},
		{"max_speedup", maxSpeedup},
		{"max_regression", maxRegression},
		{"reopts", float64(reopts)},
	}}), nil
}
