package lint

import (
	"math"
	"sync"
	"testing"
)

// wbLoader memoizes one in-package loader so the stdlib is type-checked
// once for all white-box value-layer tests.
var wbLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader(".")
})

// loadValueFixture loads the absint fixture and runs the value analysis.
func loadValueFixture(t *testing.T) *valueAnalysis {
	t.Helper()
	ld, err := wbLoader()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ld.LoadDirAs("testdata/src/absint/src", "repro/internal/fixabsint")
	if err != nil {
		t.Fatal(err)
	}
	return programValues(prog)
}

// fnNode finds a function node by display name.
func fnNode(t *testing.T, va *valueAnalysis, name string) *FuncNode {
	t.Helper()
	for _, fn := range va.funcs {
		if fn.Name == name {
			return fn
		}
	}
	t.Fatalf("no function %q in the fixture", name)
	return nil
}

// summaryOf returns a function's computed value summary.
func summaryOf(t *testing.T, va *valueAnalysis, name string) *ValueSummary {
	t.Helper()
	fn := fnNode(t, va, name)
	sum := va.summaries[fn.Obj]
	if sum == nil || len(sum.Results) == 0 {
		t.Fatalf("%s has no value summary", name)
	}
	return sum
}

// TestValueSolverConverges pins termination: every fixture function —
// including the widening loop — must reach a fixpoint within
// solverMaxRounds.
func TestValueSolverConverges(t *testing.T) {
	va := loadValueFixture(t)
	for fn := range va.nonConverged {
		t.Errorf("%s did not converge", fn.Name)
	}
}

// TestBranchJoinInterval pins the if/else join: two branch constants merge
// into their hull.
func TestBranchJoinInterval(t *testing.T) {
	va := loadValueFixture(t)
	got := summaryOf(t, va, "joinRange").Results[0].IV
	if got != (Interval{2, 3}) {
		t.Errorf("joinRange returns %v, want [2, 3]", got)
	}
}

// TestLoopWidening pins widening at the Loop-marked head: the counter jumps
// to +inf instead of iterating per value, and keeps its proven lower bound.
func TestLoopWidening(t *testing.T) {
	va := loadValueFixture(t)
	got := summaryOf(t, va, "widen").Results[0].IV
	if got != (Interval{0, math.MaxInt64}) {
		t.Errorf("widen returns %v, want [0, +inf]", got)
	}
}

// TestSelectClauseEdges pins state flow through select-clause edges: both
// clause constants reach the merged return.
func TestSelectClauseEdges(t *testing.T) {
	va := loadValueFixture(t)
	got := summaryOf(t, va, "selectJoin").Results[0].IV
	if !got.Contains(5) || !got.Contains(7) || got.Hi != 7 {
		t.Errorf("selectJoin returns %v, want a hull of {5, 7} capped at 7", got)
	}
}

// TestBranchSensitiveRefinement pins edge refinement on both polarities:
// the clamp's summary is exactly the clamped range.
func TestBranchSensitiveRefinement(t *testing.T) {
	va := loadValueFixture(t)
	got := summaryOf(t, va, "clamp").Results[0].IV
	if got != (Interval{0, 100}) {
		t.Errorf("clamp returns %v, want [0, 100]", got)
	}
}

// TestMulGuardIdiom pins the guard recognition: the MaxInt64/b comparison
// marks the product guarded on its true edge, and the bare product stays
// unguarded.
func TestMulGuardIdiom(t *testing.T) {
	va := loadValueFixture(t)
	for _, tc := range []struct {
		fn    string
		guard bool
	}{
		{"guarded", true},
		{"unguarded", false},
	} {
		fn := fnNode(t, va, tc.fn)
		sites := va.sites[fn]
		var muls []mulAddSite
		for _, s := range sites.mulAdds {
			if s.xs == "a" && s.ys == "b" {
				muls = append(muls, s)
			}
		}
		if len(muls) != 1 {
			t.Fatalf("%s recorded %d a*b sites, want 1", tc.fn, len(muls))
		}
		if muls[0].guard != tc.guard {
			t.Errorf("%s's product guard = %v, want %v", tc.fn, muls[0].guard, tc.guard)
		}
	}
}

// TestCFGBranchEdges pins the true/false edge convention the refinement
// relies on: a conditional block carries its condition in Branch with
// Succs[0] the true edge and Succs[1] the false edge.
func TestCFGBranchEdges(t *testing.T) {
	c := buildFromSrc(t, "x := 1\nif x > 0 {\nx = 2\n} else {\nx = 3\n}\n_ = x")
	entry := c.Blocks[0]
	if entry.Branch == nil {
		t.Fatal("if-condition block has no Branch expression")
	}
	if len(entry.Succs) != 2 {
		t.Fatalf("branch block has %d successors, want 2", len(entry.Succs))
	}
	if edgeKindOf(entry, 0) != edgeTrue || edgeKindOf(entry, 1) != edgeFalse {
		t.Error("Succs[0]/Succs[1] must be the true/false edges")
	}
	if last := c.Blocks[len(c.Blocks)-1]; edgeKindOf(entry, 0) == edgeFlow || len(last.Succs) != 0 {
		t.Error("exit block must have no successors")
	}
}
