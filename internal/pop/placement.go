// Package pop implements Progressive Query Optimization — the paper's
// primary contribution. It layers three mechanisms over the optimizer and
// executor substrates:
//
//  1. a checkpoint-placement post-pass that inserts CHECK operators into a
//     chosen plan (five flavors: LC, LCEM, ECB, ECWC, ECDC — paper §3, §4),
//     with check ranges taken from the validity ranges the optimizer computed
//     during pruning (paper §2.2);
//  2. a re-optimization controller that catches CHECK violations, feeds
//     actual cardinalities back, promotes completed materializations to
//     temporary materialized views, recompiles, and re-executes — at most
//     MaxReopts times (paper §2, §7 "Ensuring Termination");
//  3. duplicate-free pipelining via ECDC's rid side-table and compensating
//     anti-join (paper §3.3, Figure 9).
package pop

import (
	"math"

	"repro/internal/logical"
	"repro/internal/optimizer"
)

// Policy controls which checkpoint flavors the post-pass places. The zero
// value places nothing; DefaultPolicy mirrors the paper's conservative
// default (§4): LC and LCEM only.
type Policy struct {
	LC   bool // lazy checks above materialization points and HSJN builds
	LCEM bool // check + eager TEMP on NLJN outers
	ECB  bool // buffered eager check on NLJN outers (replaces LCEM there)
	ECWC bool // eager check below materialization points
	ECDC bool // eager check with deferred compensation on pipelined join edges

	// MinPlanCost suppresses checkpointing for cheap plans — monitoring and
	// re-optimizing a trivial query is not worth it (paper §4).
	MinPlanCost float64

	// RequireBoundedRange places a checkpoint only when the edge's validity
	// range is bounded, i.e. an alternative plan exists above the checkpoint
	// (paper §4). Disabled by the Fig. 14 opportunity study, which wants
	// every potential checkpoint instrumented.
	RequireBoundedRange bool

	// FailCheckIDs forces the listed checkpoints to fail when reached, used
	// by the Fig. 12 overhead experiment ("dummy re-optimization").
	FailCheckIDs map[int]bool

	// Unchecked widens every check range to (0, +inf) so no checkpoint ever
	// fires; the Fig. 14 opportunity study uses it to observe checkpoint
	// timing over a full execution.
	Unchecked bool

	// FixedThresholdFactor, when positive, replaces the validity-range check
	// ranges with ad-hoc error thresholds [est/K, est·K] — the strategy of
	// [KD98] that the paper argues against (§1.2). Used by the ablation
	// benchmark comparing the two.
	FixedThresholdFactor float64
}

// DefaultPolicy is the paper's conservative default: LC and LCEM only, with
// bounded-range and minimum-cost requirements.
func DefaultPolicy() Policy {
	return Policy{
		LC:                  true,
		LCEM:                true,
		MinPlanCost:         1000,
		RequireBoundedRange: true,
	}
}

// Place rewrites the plan with CHECK operators per the policy and returns
// the new root together with the number of checkpoints placed. The input
// plan is not modified.
func Place(plan *optimizer.Plan, q *logical.Query, pol Policy) (*optimizer.Plan, int) {
	if plan.Cost < pol.MinPlanCost {
		return plan, 0
	}
	p := &placer{q: q, pol: pol}
	root := p.rewrite(plan, nil, 0)
	return root, p.nextID
}

type placer struct {
	q      *logical.Query
	pol    Policy
	nextID int
}

// newCheck wraps child in a CHECK with the given flavor and range.
func (p *placer) newCheck(child *optimizer.Plan, flavor optimizer.CheckFlavor, r optimizer.Range, est float64) *optimizer.Plan {
	return p.newCheckAt(child, flavor, r, est, "")
}

// newCheckAt is newCheck with a placement-site label (paper Fig. 14 legend).
func (p *placer) newCheckAt(child *optimizer.Plan, flavor optimizer.CheckFlavor, r optimizer.Range, est float64, where string) *optimizer.Plan {
	if k := p.pol.FixedThresholdFactor; k > 0 {
		r = optimizer.Range{Lo: est / k, Hi: est * k}
	}
	if p.pol.Unchecked {
		r = optimizer.UnboundedRange()
	}
	id := p.nextID
	p.nextID++
	if p.pol.FailCheckIDs[id] {
		// An impossible range: count < Lo at end of stream always fails.
		r = optimizer.Range{Lo: math.Inf(1), Hi: math.Inf(1)}
	}
	return optimizer.WrapCheck(child, &optimizer.CheckMeta{
		ID:        id,
		Flavor:    flavor,
		Range:     r,
		EstCard:   est,
		Signature: optimizer.Signature(p.q, child.Tables()),
		Where:     where,
	})
}

// newTemp wraps child in an eager materialization (TEMP).
func (p *placer) newTemp(child *optimizer.Plan) *optimizer.Plan {
	return optimizer.WrapTemp(child)
}

// rewrite walks the tree bottom-up, inserting checkpoints on edges.
// parent and edge identify the edge above node (parent == nil at the root).
func (p *placer) rewrite(node *optimizer.Plan, parent *optimizer.Plan, edge int) *optimizer.Plan {
	n := cloneNode(node)
	for i := range n.Children {
		n.Children[i] = p.rewrite(n.Children[i], node, i)
	}

	// ECWC: an eager check pushed below a materialization point (paper
	// Fig. 7 right): the materialization's input edge carries the same
	// cardinality as its output edge, so the output edge's validity range
	// applies.
	if p.pol.ECWC && n.Op.IsMaterialization() && parent != nil {
		v := parent.EdgeValidity(edge)
		if p.placeable(v) && n.Children[0].Op != optimizer.OpCheck {
			n.Children[0] = p.newCheck(n.Children[0], optimizer.ECWC, v, n.Children[0].Card)
		}
	}

	switch n.Op {
	case optimizer.OpNLJN:
		// LCEM / ECB guard the outer of every NLJN (paper §3.2, §4).
		v := node.EdgeValidity(0)
		outer := n.Children[0]
		alreadySafe := outer.Op == optimizer.OpCheck || outer.Op.IsMaterialization()
		if p.placeable(v) && !alreadySafe {
			switch {
			case p.pol.ECB:
				// BUFCHECK = TEMP over CHECK (paper §5): the check fires
				// while the buffer fills, before materialization completes.
				buf := int(v.Hi) + 1
				ck := p.newCheckAt(outer, optimizer.ECB, v, outer.Card, "NLJN outer")
				ck.Check.BufferSize = buf
				n.Children[0] = p.newTemp(ck)
			case p.pol.LCEM:
				// CHECK above an eager TEMP: validated once, after the
				// materialization completes.
				n.Children[0] = p.newCheckAt(p.newTemp(outer), optimizer.LCEM, v, outer.Card, "NLJN outer")
			case p.pol.ECDC:
				// Pure streaming check: rows keep flowing to the client; the
				// runner compensates returned rows after re-optimization.
				n.Children[0] = p.newCheck(outer, optimizer.ECDC, v, outer.Card)
			}
		} else if p.placeable(v) && outer.Op.IsMaterialization() && p.pol.LC {
			// A natural materialization below the outer: plain LC suffices.
			n.Children[0] = p.newCheck(outer, optimizer.LC, v, outer.Card)
		}

	case optimizer.OpHSJN:
		// LC above the hash-join build side (paper Fig. 14 "LC (above HJ)"):
		// the build is a materialization inside the operator, so a check on
		// the build edge fires no later than the end of the build.
		if p.pol.LC {
			v := node.EdgeValidity(1)
			if p.placeable(v) && n.Children[1].Op != optimizer.OpCheck {
				n.Children[1] = p.newCheckAt(n.Children[1], optimizer.LC, v, n.Children[1].Card, "above HJ")
			}
		}
		// ECDC: streaming check on the pipelined probe edge.
		if p.pol.ECDC {
			v := node.EdgeValidity(0)
			if p.placeable(v) && n.Children[0].Op != optimizer.OpCheck {
				n.Children[0] = p.newCheck(n.Children[0], optimizer.ECDC, v, n.Children[0].Card)
			}
		}

	case optimizer.OpMGJN, optimizer.OpSort, optimizer.OpTemp, optimizer.OpHashAgg, optimizer.OpProject, optimizer.OpCheck:
		// Handled via the generic materialization rule below.
	default:
		// Leaves (scans, lookups) carry no join-specific
		// checkpoint placement; the generic rule below still applies.
	}

	// LC above materialization points (paper §3.1): if a child is a SORT or
	// TEMP, checkpoint the edge above it. NLJN outers were handled above,
	// and an ECB's TEMP-over-CHECK pair must not be re-wrapped.
	if p.pol.LC {
		for i := range n.Children {
			if n.Op == optimizer.OpNLJN && i == 0 {
				continue
			}
			c := n.Children[i]
			if !c.Op.IsMaterialization() {
				continue
			}
			if len(c.Children) == 1 && c.Children[0].Op == optimizer.OpCheck {
				continue // ECB pair
			}
			v := node.EdgeValidity(i)
			if p.placeable(v) {
				n.Children[i] = p.newCheckAt(c, optimizer.LC, v, c.Card, "above TMP/SORT")
			}
		}
	}

	return n
}

// placeable applies the bounded-range requirement.
func (p *placer) placeable(v optimizer.Range) bool {
	if p.pol.RequireBoundedRange && !v.Bounded() {
		return false
	}
	return true
}

// cloneNode shallow-copies a plan node with fresh child and validity slices.
func cloneNode(p *optimizer.Plan) *optimizer.Plan { return optimizer.CloneNode(p) }

// CheckCount returns the number of CHECK operators in a plan.
func CheckCount(p *optimizer.Plan) int { return p.Count(optimizer.OpCheck) }

// Checks lists the CheckMeta of every checkpoint in plan order.
func Checks(p *optimizer.Plan) []*optimizer.CheckMeta {
	var out []*optimizer.CheckMeta
	p.Walk(func(n *optimizer.Plan) {
		if n.Op == optimizer.OpCheck && n.Check != nil {
			out = append(out, n.Check)
		}
	})
	return out
}
