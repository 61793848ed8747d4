package harness

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/tpch"
)

func tpchCat(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	if err := tpch.Load(cat, tpch.Config{ScaleFactor: 0.002, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	return cat
}

// figure returns a figure study's cells of the shared smoke report, split
// into its points, in order, and the summary cell it ends with.
func figure(t *testing.T, study string) (points []Cell, summary Cell) {
	t.Helper()
	for _, s := range smokeReport(t).Studies {
		if n := len(s.Cells) - 1; s.Name == study && n >= 0 && s.Cells[n].Name == "summary" {
			return s.Cells[:n], s.Cells[n]
		}
	}
	t.Fatalf("report has no study %s ending in a summary cell", study)
	return nil, Cell{}
}

func TestFig11Shape(t *testing.T) {
	points, summary := figure(t, "fig11")
	if len(points) != 5 {
		t.Fatalf("points = %d", len(points))
	}
	// Shape claims from the paper:
	// (a) the static default plan degrades sharply at high selectivity;
	// (b) POP stays within a small factor of optimal everywhere;
	// (c) POP beats the static plan substantially at the high end.
	last := points[len(points)-1]
	lastPOP, lastStatic, lastOpt := count(t, last, "pop_default"), count(t, last, "static_default"), count(t, last, "optimal")
	if lastStatic <= lastOpt*1.5 {
		t.Errorf("static plan should degrade at 100%% selectivity: static=%.0f optimal=%.0f",
			lastStatic, lastOpt)
	}
	for _, p := range points {
		if pop, opt := count(t, p, "pop_default"), count(t, p, "optimal"); pop > opt*3 {
			t.Errorf("POP at %.0f%% is %.1fx optimal, want <= 3x (paper: <= 2x)",
				count(t, p, "selectivity_pct"), pop/opt)
		}
	}
	if lastPOP*1.5 >= lastStatic {
		t.Errorf("POP should clearly beat the static plan at 100%%: POP=%.0f static=%.0f",
			lastPOP, lastStatic)
	}
	// Paper: the optimal plan changes several times across the sweep.
	if n := count(t, summary, "distinct_optimal_plans"); n < 2 {
		t.Errorf("optimal plan shapes across sweep = %v, want >= 2", n)
	}
}

func TestFig12Overhead(t *testing.T) {
	bars, _ := figure(t, "fig12")
	if len(bars) == 0 {
		t.Fatal("no Figure 12 bars — no checkpoints reached")
	}
	for _, b := range bars {
		if n := count(t, b, "normalized"); n < 0.5 || n > 2.5 {
			t.Errorf("%s: normalized %.3f far from 1 — dummy reopt should be cheap", b.Name, n)
		}
		before, total := count(t, b, "before"), count(t, b, "before")+count(t, b, "after")
		if before <= 0 || before >= total {
			t.Errorf("%s: before component %.0f outside (0,%.0f)", b.Name, before, total)
		}
	}
}

func TestFig13LCEMOverheadSmall(t *testing.T) {
	rows, _ := figure(t, "fig13")
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Paper: <= ~3%. Allow headroom at tiny scale.
		if o := count(t, r, "overhead"); o > 1.15 {
			t.Errorf("%s: LCEM overhead %.3f too high", r.Name, o)
		} else if o < 0.99 {
			t.Errorf("%s: overhead %.3f below 1 — materialization cannot be free", r.Name, o)
		}
	}
}

func TestFig14Opportunities(t *testing.T) {
	points, _ := figure(t, "fig14")
	if len(points) == 0 {
		t.Fatal("no opportunities observed")
	}
	flavors := map[string]int{}
	for _, p := range points {
		start, end := count(t, p, "start"), count(t, p, "end")
		if start < 0 || start > 1.0001 || end < start-1e-9 {
			t.Errorf("%s: bad interval [%v,%v]", p.Name, start, end)
		}
		// The name is "<query> <flavor> (<site>) #<n>", e.g. "Q2 LC (above HJ) #1".
		flavors[strings.Fields(p.Name)[1]]++
	}
	if flavors["LC"] == 0 && flavors["LCEM"] == 0 {
		t.Error("expected lazy-check opportunities")
	}
}

func TestDMVStudyShape(t *testing.T) {
	_, s := figure(t, "fig15")
	if count(t, s, "improved") == 0 {
		t.Error("POP should improve at least one correlated DMV query")
	}
	if count(t, s, "reopts") == 0 {
		t.Error("correlated workload should re-optimize at least once")
	}
}
