package optimizer

import (
	"repro/internal/catalog"
	"repro/internal/logical"
	"repro/internal/stats"
)

// This file exports the validity ranges of a returned plan (§2.2) in
// a form the plan cache can check without re-running the optimizer: a set of
// guards, one per guarded table subset. A cached plan may be reused for a new
// parameter binding iff the binding's estimated cardinality for every guarded
// subset lies inside the guard's range — the parametric-reuse reading of the
// paper's validity ranges.

// Guard pins one validity-guarded edge of a plan: the base-table subset
// feeding the edge, the validity range the optimizer proved the plan optimal
// within, and the estimate the range was derived from.
type Guard struct {
	Tables  uint64  // bitmask of base tables feeding the edge
	Range   Range   // validity interval on the edge's cardinality
	EstCard float64 // the optimizer's estimate when the plan was built
}

// CollectGuards extracts the reuse guards from a plan tree: every checkable
// child edge carrying a bounded validity range contributes its child's table
// subset. Edges the runtime cannot observe fully (index-NLJN probes,
// rescanned NLJN inners) are skipped, exactly as CHECK placement skips them.
// Multiple edges over the same subset (the same intermediate result feeding
// different operators, or surviving an exchange wrap) are intersected —
// reuse requires every edge in range, so the conjunction is the tightest
// interval. Guards come back in first-visit (pre-order) order.
func CollectGuards(p *Plan) []Guard {
	acc := map[uint64]Guard{}
	var order []uint64
	p.Walk(func(n *Plan) {
		for k, c := range n.Children {
			if !edgeCheckable(n, k) || c.tables == 0 {
				continue
			}
			r := n.EdgeValidity(k)
			if !r.Bounded() {
				continue
			}
			g, seen := acc[c.tables]
			if !seen {
				g = Guard{Tables: c.tables, Range: UnboundedRange(), EstCard: c.Card}
				order = append(order, c.tables)
			}
			if r.Lo > g.Range.Lo {
				g.Range.Lo = r.Lo
			}
			if r.Hi < g.Range.Hi {
				g.Range.Hi = r.Hi
			}
			acc[c.tables] = g
		}
	})
	out := make([]Guard, 0, len(order))
	for _, m := range order {
		out = append(out, acc[m])
	}
	return out
}

// CardEstimator estimates table-subset cardinalities for a query without
// enumerating any plans — the plan cache's cheap lookup-side check. Build it
// over the parameter-bound query (logical.BindParams) so marker predicates
// get histogram selectivities instead of defaults, and pass the cache entry's
// feedback so observed actuals override estimates exactly as they would in a
// full optimization.
type CardEstimator struct {
	est *estimator
	// Evals counts SubsetCard evaluations — the lookup-side measure of
	// optimization work, comparable against Optimizer.EnumeratedCandidates.
	Evals int
}

// NewCardEstimator resolves the query's tables against the catalog and
// returns an estimator ready for SubsetCard probes.
func NewCardEstimator(cat *catalog.Catalog, q *logical.Query, fb *stats.Feedback) (*CardEstimator, error) {
	tabs := make([]*catalog.Table, len(q.Tables))
	for i, tr := range q.Tables {
		t, err := cat.Table(tr.Table)
		if err != nil {
			return nil, err
		}
		tabs[i] = t
	}
	return &CardEstimator{est: newEstimator(q, tabs, fb)}, nil
}

// SubsetCard estimates the join output cardinality of the table subset.
func (ce *CardEstimator) SubsetCard(mask uint64) float64 {
	ce.Evals++
	return ce.est.SubsetCard(mask)
}
