package optimizer

import "math"

// CostParams are the work-unit weights of the cost model. The executor
// charges the same weights per actual row processed, so a plan's simulated
// execution time equals its modeled cost evaluated at the actual
// cardinalities — which makes the figures deterministic and machine
// independent (DESIGN.md §1). pop.TestModelEqualsMeter asserts it operator by
// operator: a term added or changed here needs its charge in the executor.
type CostParams struct {
	ScanRow      float64 // sequential heap row
	PredEval     float64 // one predicate evaluation
	HashBuildRow float64 // insert a row into a hash table
	HashProbeRow float64 // probe a hash table
	OutputRow    float64 // construct an output tuple
	SortCmpRow   float64 // per row × log2(n) comparison work
	TempWrite    float64 // write a row to a temp
	TempRead     float64 // read a row back from a temp
	IndexLevel   float64 // touch one B+tree level
	FetchRow     float64 // random heap fetch via rid
	MergeRow     float64 // advance a merge-join input
	CheckRow     float64 // CHECK counter bump (negligible, paper §1)
	SpillRow     float64 // write+read a row in an extra hash-join stage

	// MemoryBytes is the hash-join build memory budget. Builds larger than
	// this run in multiple stages, spilling both inputs — the cost cliff the
	// paper cites ("a 10 percent increase in ORDERS may turn a two-stage
	// hash join into a three-stage hash join").
	MemoryBytes float64

	// ReoptInvoke is the fixed cost of one optimizer re-invocation
	// (context switching; paper Fig. 12 shows it as a tiny gap).
	ReoptInvoke float64

	// Workers is ignored: every plan is serial. It is kept only because the
	// benchmark harness (bench/) still sets it, until ROADMAP item 8 deletes it.
	Workers int
}

// DefaultCostParams returns the calibrated default weights.
func DefaultCostParams() CostParams {
	return CostParams{
		ScanRow:      1.0,
		PredEval:     0.15,
		HashBuildRow: 2.0,
		HashProbeRow: 1.2,
		OutputRow:    0.5,
		SortCmpRow:   0.35,
		TempWrite:    1.0,
		TempRead:     0.5,
		IndexLevel:   2.0,
		FetchRow:     4.0,
		MergeRow:     0.8,
		CheckRow:     0.02,
		SpillRow:     2.5,
		MemoryBytes:  1 << 20,
		ReoptInvoke:  500,
	}
}

// AccessCost is the cost of one index access: the B+tree descent, then a
// heap fetch and the residual predicates for every row the index key
// matches — matched, not the rows that survive the residuals, because the
// executor fetches first and filters afterwards.
func (pr *CostParams) AccessCost(descent, matched float64, residuals int) float64 {
	return descent + matched*pr.FetchRow + matched*float64(residuals)*pr.PredEval
}

// CostModel evaluates operator cost formulas. The formulas are functions of
// the child edge cardinalities, which is exactly what the validity-range
// sensitivity analysis re-evaluates with perturbed cardinalities (paper
// §2.2: "the only overhead is the repeated evaluation of the cost functions
// for operators oopt and oalt with alternate cardinalities").
type CostModel struct {
	Params CostParams
}

// HashStages is the one staging rule of a hash-join build of rows rows,
// cols columns wide, under the memory budget mem (≤ 0: unlimited): its
// bytes are 12 a column, at least 12 a row; it takes one pass while they fit
// mem and one per budget's worth beyond. The cost model and the executor's
// staging charge both read it.
func HashStages(rows float64, cols int, mem float64) float64 {
	width := 12 * float64(max(cols, 1))
	if bytes := rows * width; mem > 0 && bytes > mem {
		return math.Ceil(bytes / mem)
	}
	return 1
}

// Recost computes the total (cumulative) cost of plan node p given its child
// output cardinalities cc and child subtree costs cs. Output cardinality is
// scaled from the node's estimate in proportion to the perturbed inputs so
// downstream terms stay consistent. Leaf operators return their precomputed
// cost.
func (m *CostModel) Recost(p *Plan, cc, cs []float64) float64 {
	pr := &m.Params
	switch p.Op {
	case OpTableScan, OpIndexScan, OpMVScan:
		return p.Cost

	case OpNLJN:
		out := scaleCardOf(p, cc)
		if p.IndexJoin {
			return pr.indexNLJNCost(cc[0], cs[0], cs[1], out)
		}
		return pr.nljnCost(cc[0], cc[1], cs[0], cs[1], out)

	case OpHSJN:
		return pr.hsjnCost(cc[0], cc[1], cs[0], cs[1], scaleCardOf(p, cc), len(p.Children[1].Cols))

	case OpMGJN:
		return pr.mgjnCost(cc[0], cc[1], cs[0], cs[1], scaleCardOf(p, cc))

	case OpSort:
		return pr.sortCost(cc[0], cs[0])

	case OpTemp:
		n := cc[0]
		return cs[0] + n*(pr.TempWrite+pr.TempRead)

	case OpHashAgg:
		n := cc[0]
		groups := scaleCardOf(p, cc)
		return cs[0] + n*pr.HashBuildRow + groups*pr.OutputRow

	case OpProject:
		n := cc[0]
		filterTerms := 0.0
		if p.Filter != nil {
			filterTerms = n * pr.PredEval
		}
		return cs[0] + n*pr.OutputRow + filterTerms

	case OpCheck:
		n := cc[0]
		return cs[0] + n*pr.CheckRow

	default:
		return cs[0]
	}
}

// The join and SORT formulas are scalar functions of the input
// cardinalities, the input subtree costs and the output cardinality, so that
// Recost (at perturbed cardinalities) and the DP enumerator (at a candidate's
// own, before it builds the candidate) evaluate one formula.

// nljnCost is a naive NLJN's total cost: it rescans the inner subtree once
// per outer row and evaluates the join predicate against every pair.
func (pr *CostParams) nljnCost(outer, inner, outerCost, innerCost, out float64) float64 {
	probes := math.Max(outer, 0)
	rescans := math.Max(probes, 1)
	return outerCost + rescans*innerCost + probes*inner*pr.PredEval + out*pr.OutputRow
}

// indexNLJNCost is an index NLJN's total cost. Its inner is a parameterized
// index probe: innerCost is the per-probe cost.
func (pr *CostParams) indexNLJNCost(outer, outerCost, innerCost, out float64) float64 {
	probes := math.Max(outer, 0)
	return outerCost + (probes*innerCost + out*pr.OutputRow)
}

// hsjnCost is a hash join's total cost, with buildCols the build input's
// column count (HashStages).
func (pr *CostParams) hsjnCost(probe, build, probeCost, buildCost, out float64, buildCols int) float64 {
	stages := HashStages(build, buildCols, pr.MemoryBytes)
	own := build*pr.HashBuildRow + probe*pr.HashProbeRow + out*pr.OutputRow
	if stages > 1 {
		own += (stages - 1) * (build + probe) * pr.SpillRow
	}
	return probeCost + buildCost + own
}

// mgjnCost is a merge join's total cost over inputs already in key order.
func (pr *CostParams) mgjnCost(l, r, lCost, rCost, out float64) float64 {
	return lCost + rCost + (l+r)*pr.MergeRow + out*pr.OutputRow
}

// sortCost is a SORT's total cost over n input rows.
func (pr *CostParams) sortCost(n, inCost float64) float64 {
	return inCost + n*math.Log2(n+2)*pr.SortCmpRow + n*pr.TempWrite
}

// scaleCardOf scales the estimated output cardinality in proportion to the
// perturbed input cardinalities, so cost terms that depend on output size
// respond to the sensitivity analysis. The cardinalities the estimate was
// computed from are read from the node's children.
func scaleCardOf(p *Plan, cc []float64) float64 {
	out := p.Card
	for i := range cc {
		if i < len(p.Children) && p.Children[i].Card > 0 {
			out *= cc[i] / p.Children[i].Card
		}
	}
	if math.IsNaN(out) || out < 0 {
		return p.Card
	}
	return out
}

// edgeCost is f(card) = total cost of a node with child edge k's cardinality
// overridden — the function whose crossover the validity-range search
// locates. It is a plain value: the node's child cardinalities and subtree
// costs sit in fixed arrays (every operator has at most two inputs), so
// building one and evaluating it allocates nothing.
type edgeCost struct {
	m          *CostModel
	p          *Plan
	k          int
	card, cost [2]float64
}

// edgeCost snapshots p's child cardinalities and subtree costs for
// evaluations along edge k.
func (m *CostModel) edgeCost(p *Plan, k int) edgeCost {
	if len(p.Children) > 2 {
		panic("optimizer: edgeCost on a node with more than two inputs")
	}
	e := edgeCost{m: m, p: p, k: k}
	for i, c := range p.Children {
		e.card[i], e.cost[i] = c.Card, c.Cost
	}
	return e
}

// eval is the node's total cost at the snapshot's current cardinalities.
func (e *edgeCost) eval() float64 {
	n := len(e.p.Children)
	return e.m.Recost(e.p, e.card[:n], e.cost[:n])
}

// at evaluates the node's total cost with edge k's cardinality set to card,
// holding every child's subtree cost fixed.
func (e *edgeCost) at(card float64) float64 {
	e.card[e.k] = card
	return e.eval()
}

// finishCosting sets p.Cost from its children using the model.
func (m *CostModel) finishCosting(p *Plan) {
	if len(p.Children) == 0 {
		return
	}
	e := m.edgeCost(p, 0)
	p.Cost = e.eval()
}

// CostWithEdgeCard recomputes the total cost of p with child edge k's
// cardinality overridden to c, holding every child's subtree cost fixed. An
// out-of-range k overrides nothing.
func (m *CostModel) CostWithEdgeCard(p *Plan, k int, c float64) float64 {
	e := m.edgeCost(p, k)
	if k < 0 || k >= len(p.Children) {
		return e.eval()
	}
	return e.at(c)
}
