package optimizer

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/expr"
)

// splitVisit is one (outer subset, inner table) split.
type splitVisit struct {
	rest uint64
	ti   int
}

// groupSplits returns, in ascending order, every split of a subset that has
// plans with a table outside it, where the joined subset has plans too.
// After enumerateDP that is exactly the set of splits both of its passes
// visit: joinSplits looks up the shape of every such split of every subset
// it enumerates, for its connectivity test, and a subset of two or more
// tables has plans exactly when it was enumerated. After the greedy chain it
// is a superset of the chain's splits.
func groupSplits(pl *planner) []splitVisit {
	var rests []uint64
	for rest, g := range pl.best {
		if len(g) > 0 {
			rests = append(rests, rest)
		}
	}
	slices.Sort(rests)
	var out []splitVisit
	for _, rest := range rests {
		for ti := range pl.q.Tables {
			bit := uint64(1) << uint(ti)
			if rest&bit == 0 && len(pl.best[rest|bit]) > 0 {
				out = append(out, splitVisit{rest, ti})
			}
		}
	}
	return out
}

// exprText renders e, nil included.
func exprText(e expr.Expr) string {
	if e == nil {
		return "<nil>"
	}
	return e.String()
}

// sameKeys is value equality that also tells nil from empty: joinCandidates
// reads a nil probeKeys as "no hash join".
func sameKeys(a, b []int) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// shapeDiff describes the first field in which got, a memoized shape, differs
// from want, a fresh derivation, or returns "".
func shapeDiff(got, want *splitShape) string {
	switch {
	case got.ti != want.ti:
		return fmt.Sprintf("ti %d, fresh %d", got.ti, want.ti)
	case got.inner != want.inner:
		return "inner is another plan"
	case exprText(got.joinPred) != exprText(want.joinPred):
		return fmt.Sprintf("joinPred %s, fresh %s", exprText(got.joinPred), exprText(want.joinPred))
	case !sameKeys(got.probeKeys, want.probeKeys) || !sameKeys(got.buildKeys, want.buildKeys):
		return fmt.Sprintf("hash keys %v/%v, fresh %v/%v", got.probeKeys, got.buildKeys, want.probeKeys, want.buildKeys)
	case exprText(got.hashFilter) != exprText(want.hashFilter):
		return fmt.Sprintf("hashFilter %s, fresh %s", exprText(got.hashFilter), exprText(want.hashFilter))
	case len(got.indexJoins) != len(want.indexJoins):
		return fmt.Sprintf("%d index joins, fresh %d", len(got.indexJoins), len(want.indexJoins))
	case !sameKeys(got.mergeLeft, want.mergeLeft) || !sameKeys(got.mergeRight, want.mergeRight):
		return fmt.Sprintf("merge keys %v/%v, fresh %v/%v", got.mergeLeft, got.mergeRight, want.mergeLeft, want.mergeRight)
	case exprText(got.mergeFilter) != exprText(want.mergeFilter):
		return fmt.Sprintf("mergeFilter %s, fresh %s", exprText(got.mergeFilter), exprText(want.mergeFilter))
	}
	for i, g := range got.indexJoins {
		w := want.indexJoins[i]
		switch {
		case g.lookupCol != w.lookupCol || g.ord != w.ord:
			return fmt.Sprintf("index join %d probes %d on ordinal %d, fresh %d on %d", i, g.lookupCol, g.ord, w.lookupCol, w.ord)
		case !sameCost(g.probeCost, w.probeCost):
			return fmt.Sprintf("index join %d probeCost %b, fresh %b", i, g.probeCost, w.probeCost)
		case exprText(g.filter) != exprText(w.filter):
			return fmt.Sprintf("index join %d filter %s, fresh %s", i, exprText(g.filter), exprText(w.filter))
		}
	}
	gm, wm := got.mergeInner, want.mergeInner
	switch {
	case gm == wm:
	case gm == nil || wm == nil:
		return fmt.Sprintf("mergeInner %v, fresh %v", gm, wm)
	case gm.Op != OpSort || wm.Op != OpSort:
		return fmt.Sprintf("mergeInner %s is another plan than fresh %s", gm.Op, wm.Op)
	case len(gm.Children) != 1 || len(wm.Children) != 1 || gm.Children[0] != wm.Children[0]:
		return "mergeInner sorts another plan"
	case !slices.Equal(gm.SortKeys, wm.SortKeys) || gm.ordered != wm.ordered:
		return fmt.Sprintf("mergeInner sorts on %v, fresh on %v", gm.SortKeys, wm.SortKeys)
	case !sameCost(gm.Cost, wm.Cost) || !sameCost(gm.Card, wm.Card):
		return fmt.Sprintf("mergeInner card/cost %b/%b, fresh %b/%b", gm.Card, gm.Cost, wm.Card, wm.Cost)
	}
	return ""
}

// TestSplitShapesMatchFresh is the equality the split-shape memo rests on:
// every split the DP, the greedy chain and narrowChosen visit gets, from the
// memo, the shape a fresh derivation at its own outer subset gives —
// expressions by text, key slices by value, probe costs to the bit, the inner
// by pointer and the merge inner by what it sorts and costs.
// It runs over the DMV and TPC-H workloads under the default optimizer,
// without hash joins, without index and merge joins, and in a
// re-optimization state.
func TestSplitShapesMatchFresh(t *testing.T) {
	configs := []compileConfig{
		{"default", false, func(*Optimizer) {}},
		{"noHSJN", false, func(o *Optimizer) { o.DisableHSJN = true }},
		{"noIndexJoin+noMGJN", false, func(o *Optimizer) { o.DisableIndexJoin, o.DisableMGJN = true, true }},
		{"reopt", true, func(*Optimizer) {}},
	}
	enumerations := []struct {
		name string
		run  func(pl *planner, full uint64) error
	}{
		{"dp", func(pl *planner, full uint64) error { pl.enumerateDP(full); return nil }},
		{"greedy", (*planner).enumerateGreedyVisible},
	}
	for _, w := range compileWorkloads(t) {
		cat := w.cat
		for _, c := range configs {
			for _, e := range enumerations {
				visits, shapes := 0, 0
				for _, nq := range w.queries {
					n := len(nq.q.Tables)
					if n < 2 {
						continue
					}
					o := c.optimizer(t, cat, nq.q)
					where := c.name + " " + e.name + " " + nq.name
					pl, err := o.newPlanner(nq.q)
					if err != nil {
						t.Fatal(err)
					}
					if err := e.run(pl, uint64(1)<<uint(n)-1); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					derived := len(pl.shapes)
					splits := groupSplits(pl)
					for _, v := range splits {
						if d := shapeDiff(pl.shape(v.rest, v.ti), pl.deriveShape(v.rest, v.ti)); d != "" {
							t.Errorf("%s: split %b ⋈ %d: memoized %s", where, v.rest, v.ti, d)
						}
					}
					if e.name == "dp" && len(pl.shapes) != derived {
						t.Errorf("%s: %d splits the DP never looked up", where, len(pl.shapes)-derived)
					}
					visits += len(splits)
					shapes += derived
					pl.arena.release()
				}
				t.Logf("%s %s: %d splits checked, %d shapes derived by the enumeration", c.name, e.name, visits, shapes)
			}
		}
	}
}

// TestSplitShapeBudget is the tripwire for a per-split derivation creeping
// back: on the widest DMV compile the DP derives 18 shapes for the 463
// splits of its connected subsets, one per (inner table, outer tables its
// predicates reach); over every subset it derived 58 for 5,110. Deriving
// per split makes as many shapes as visits.
func TestSplitShapeBudget(t *testing.T) {
	cat, q := widestDMV(t)
	pl, err := New(cat).newPlanner(q)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.arena.release()
	pl.enumerateDP(uint64(1)<<uint(len(q.Tables)) - 1)
	splits := len(groupSplits(pl))
	t.Logf("%d shapes derived for %d splits", pl.derived, splits)
	if pl.derived == 0 {
		t.Error("no shape derived at all")
	}
	if 100*pl.derived > 5*splits {
		t.Errorf("%d shapes derived for %d splits, budget 5 %%", pl.derived, splits)
	}
}
