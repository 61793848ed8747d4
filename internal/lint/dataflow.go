package lint

// The forward dataflow solver over the CFG. Facts are per-variable abstract
// values (absint.go) keyed on types.Object identity — the same identity
// discipline the call graph uses, so a fact about a parameter composes
// with the interprocedural summaries.
//
// The solver differs from a plain worklist in two ways:
//
//   - edges are labeled: a block ending in a Branch condition propagates a
//     REFINED copy of its out-state along the true and false edges, so
//     `x > 0` narrows intervals per successor. A refinement that proves an
//     edge infeasible (the condition contradicts the state) simply does not
//     propagate — the successor may end up unreachable, which callers
//     observe as a nil in-state.
//   - loop heads widen: after widenAfterJoins in-state changes at a block
//     with a back edge, joins jump moving interval bounds to ±∞ so counter
//     chains converge in O(1) further rounds instead of one per value.
//
// Blocks are visited in index order until fixpoint, which keeps the result
// — and therefore finding order — deterministic. Iteration is bounded
// defensively so a non-monotone transfer (or a pathological fuzz input)
// terminates rather than spinning; the fuzz target asserts the bound holds
// on parseable inputs.

// solverMaxRounds bounds fixpoint iteration: widening caps how often a loop
// head's in-state can change, so two rounds per block suffice for monotone
// transfers; the slack absorbs the first precise joins before widening.
func solverMaxRounds(c *CFG) int {
	return 2*len(c.Blocks) + 16
}

// edgeKind labels one CFG edge for the refinement hook.
type edgeKind uint8

const (
	edgeFlow  edgeKind = iota // unconditional successor
	edgeTrue                  // Branch condition is true on this edge
	edgeFalse                 // Branch condition is false on this edge
)

// edgeKindOf returns the label of the edge from b to its si-th successor,
// following the builder's convention: Succs[0] is the true edge and Succs[1]
// the false edge of b.Branch.
func edgeKindOf(b *CFGBlock, si int) edgeKind {
	if b.Branch == nil {
		return edgeFlow
	}
	switch si {
	case 0:
		return edgeTrue
	case 1:
		return edgeFalse
	}
	return edgeFlow
}

// isLoopHead reports a Loop-marked block that receives a back edge — the
// widening points of the value solver.
func isLoopHead(b *CFGBlock) bool {
	if !b.Loop {
		return false
	}
	for _, p := range b.Preds {
		if p.Index >= b.Index {
			return true
		}
	}
	return false
}

// widenAfterJoins is how many in-state changes a loop head absorbs by plain
// join before widening kicks in. A couple of precise rounds let short
// constant chains (i := 0; i < 3) settle exactly; after that, moving bounds
// jump to the sentinels.
const widenAfterJoins = 3

// solveForwardVals runs the branch-sensitive forward value analysis to
// fixpoint and returns the per-block in-states (nil = unreachable) plus
// whether a fixpoint was reached within solverMaxRounds. transfer maps a
// block's in-state to its out-state; refine narrows an out-state for a
// true/false edge, returning ok=false when the edge is provably infeasible.
func solveForwardVals(
	c *CFG,
	entry valState,
	transfer func(b *CFGBlock, in valState) valState,
	refine func(b *CFGBlock, kind edgeKind, out valState) (valState, bool),
) ([]valState, bool) {
	in := make([]valState, len(c.Blocks))
	out := make([]valState, len(c.Blocks))
	joins := make([]int, len(c.Blocks))
	in[0] = entry.clone()
	for round := 0; round < solverMaxRounds(c); round++ {
		changed := false
		for _, b := range c.Blocks {
			if in[b.Index] == nil {
				continue // unreachable (so far): nothing to propagate
			}
			newOut := transfer(b, in[b.Index].clone())
			if !valStatesEqual(out[b.Index], newOut) {
				out[b.Index] = newOut
				changed = true
			}
			if newOut == nil {
				continue // block ends in a no-return call: out-edges dead
			}
			for si, s := range b.Succs {
				eo := newOut
				if k := edgeKindOf(b, si); k != edgeFlow && refine != nil {
					var ok bool
					eo, ok = refine(b, k, newOut.clone())
					if !ok {
						continue // infeasible edge
					}
				}
				cur := in[s.Index]
				if cur == nil {
					in[s.Index] = eo.clone()
					changed = true
					continue
				}
				joined := cur.join(eo)
				if isLoopHead(s) && joins[s.Index] >= widenAfterJoins {
					joined = cur.widen(joined)
				}
				if !valStatesEqual(cur, joined) {
					in[s.Index] = joined
					joins[s.Index]++
					changed = true
				}
			}
		}
		if !changed {
			return in, true
		}
	}
	return in, false
}
