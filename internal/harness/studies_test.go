package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/pop"
	"repro/internal/tpch"
)

var updateStudies = flag.Bool("update-studies", false,
	"rewrite testdata/studies_smoke.golden from the current engine")

const studiesGolden = "testdata/studies_smoke.golden"

// smokeEnv is the scale the study tests and the golden file run at.
func smokeEnv(t *testing.T) Env {
	t.Helper()
	return Env{TPCH: tpchCat(t), DMVScale: 0.2, Smoke: true}
}

var (
	smokeOnce sync.Once
	smokeRep  *Report
	smokeErr  error
)

// smokeReport runs `-study all` at smoke size once for all tests here.
func smokeReport(t *testing.T) *Report {
	t.Helper()
	smokeOnce.Do(func() { smokeRep, smokeErr = RunStudies("all", smokeEnv(t)) })
	if smokeErr != nil {
		t.Fatal(smokeErr)
	}
	return smokeRep
}

// cells indexes one study of the report by cell name; a repeated name fails
// the test rather than hiding a cell.
func cells(t *testing.T, r *Report, study string) map[string]Cell {
	t.Helper()
	for _, s := range r.Studies {
		if s.Name == study {
			out := make(map[string]Cell, len(s.Cells))
			for _, c := range s.Cells {
				if _, dup := out[c.Name]; dup {
					t.Fatalf("study %s repeats cell name %q", study, c.Name)
				}
				out[c.Name] = c
			}
			return out
		}
	}
	t.Fatalf("report has no study %q", study)
	return nil
}

// count returns the named count of a cell; a missing one fails the test.
func count(t *testing.T, c Cell, name string) float64 {
	t.Helper()
	v, ok := c.Count(name)
	if !ok {
		t.Fatalf("cell %s has no count %q", c.Name, name)
	}
	return v
}

// TestStudiesGolden pins the whole report: two runs are byte-identical (no
// clock, allocator or map order leaks into it) and equal the checked-in
// smoke-size file, the same way CI pins BENCH_studies.json at full size.
func TestStudiesGolden(t *testing.T) {
	render := func(r *Report) []byte {
		var buf bytes.Buffer
		if err := WriteStudiesJSON(&buf, r); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got := render(smokeReport(t))
	again, err := RunStudies("all", smokeEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, render(again)) {
		t.Fatalf("two runs differ:\n%s\nvs\n%s", got, render(again))
	}
	for _, banned := range []string{"wall", "_ns", "alloc", "commit", "host"} {
		if bytes.Contains(got, []byte(banned)) {
			t.Errorf("report carries a machine-dependent field (%q)", banned)
		}
	}

	var text bytes.Buffer
	WriteStudies(&text, smokeReport(t))
	for _, s := range smokeReport(t).Studies {
		cells(t, smokeReport(t), s.Name) // cell names are unique per study
		for _, c := range s.Cells {
			if !strings.Contains(text.String(), c.Name) {
				t.Errorf("table is missing cell %s/%s", s.Name, c.Name)
			}
		}
	}
	if _, err := RunStudies("nope", Env{}); err == nil {
		t.Error("an unknown study name must be an error")
	}

	if *updateStudies {
		if err := os.WriteFile(studiesGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(studiesGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report differs from %s (-update-studies rewrites it, for a change that means to move plans or work):\n%s",
			studiesGolden, got)
	}
}

func TestPlanCacheStudy(t *testing.T) {
	c := cells(t, smokeReport(t), "plancache")
	cached, reopt := c["cached"], c["reoptimize"]
	if n := count(t, cached, "executions"); n == 0 || n != count(t, reopt, "executions") {
		t.Fatalf("sides must run the same workload: %v vs %v", n, count(t, reopt, "executions"))
	}
	if count(t, cached, "rows") != count(t, reopt, "rows") {
		t.Errorf("sides returned different row totals: %v vs %v", count(t, cached, "rows"), count(t, reopt, "rows"))
	}
	hits, misses := count(t, cached, "hits"), count(t, cached, "misses")
	if rate := hits / (hits + misses); hits == 0 || rate < 0.5 {
		t.Errorf("hit rate %.2f (%v hits) below 0.5 after %d sweeps", rate, hits, planCacheSweeps)
	}
	// Acceptance: a hit costs ≥5× less optimization work than re-optimizing,
	// so across the sweep (misses included) total work saved stays large.
	if saved := count(t, reopt, "opt_work") / count(t, cached, "opt_work"); saved < 5 {
		t.Errorf("optimization work saved %.1fx, want ≥5x", saved)
	}
	// Acceptance: reusing guarded plans must not cost execution work — total
	// stays within 5% of always-reoptimize.
	if ratio := count(t, cached, "exec_work") / count(t, reopt, "exec_work"); math.Abs(ratio-1) > 0.05 {
		t.Errorf("execution work ratio %.3f outside 1±0.05", ratio)
	}
}

// TestDPNotBeatenByGreedy pins the shootout's plan-quality claim on both
// checked-in reports: statistics-driven DP under POP does at most 2 % more
// execution work than the syntax-only greedy order on every workload. It
// failed on all three while an index probe was costed by the rows the join
// emits instead of the rows its key fetches (dp-pop/tpch 37.8M vs 8.0M).
func TestDPNotBeatenByGreedy(t *testing.T) {
	for _, path := range []string{studiesGolden, "../../BENCH_studies.json"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Studies []struct {
				Study string
				Cells []map[string]any
			}
		}
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		work := map[string]float64{}
		for _, s := range rep.Studies {
			for _, c := range s.Cells {
				if w, ok := c["exec_work"].(float64); ok && s.Study == "planners" {
					work[c["cell"].(string)] = w
				}
			}
		}
		for _, w := range plannerWorkloadNames {
			dp, greedy := work["dp-pop/"+w], work["greedy-pop/"+w]
			if dp == 0 || greedy == 0 {
				t.Fatalf("%s: no exec_work for dp-pop/%s or greedy-pop/%s", path, w, w)
			}
			if dp > 1.02*greedy {
				t.Errorf("%s: dp-pop/%s exec_work %.0f > 1.02 × greedy-pop's %.0f", path, w, dp, greedy)
			}
		}
	}
}

// TestGreedyCandidateRatio pins the shootout's planning-cost claim: over the
// TPC-H join queries (≥ 4 tables) the greedy order must enumerate at most a
// tenth of DP's candidates.
func TestGreedyCandidateRatio(t *testing.T) {
	cat := tpchCat(t)
	qs, err := tpch.Queries(cat)
	if err != nil {
		t.Fatal(err)
	}
	var dp, greedy int
	for name, q := range qs {
		if len(q.Tables) < 4 {
			continue
		}
		o1 := optimizer.New(cat)
		if _, err := o1.Optimize(q); err != nil {
			t.Fatalf("%s dp: %v", name, err)
		}
		dp += o1.EnumeratedCandidates
		o2 := optimizer.New(cat)
		o2.JoinOrder = optimizer.JoinOrderGreedy
		if _, err := o2.Optimize(q); err != nil {
			t.Fatalf("%s greedy: %v", name, err)
		}
		greedy += o2.EnumeratedCandidates
	}
	if dp == 0 || greedy == 0 {
		t.Fatalf("no candidates counted: dp=%d greedy=%d", dp, greedy)
	}
	if 10*greedy > dp {
		t.Fatalf("greedy enumerated %d candidates vs DP's %d — more than 1/10th", greedy, dp)
	}
}

// TestPlannerStudySmoke checks the smoke-scale shootout: all strategies on
// all workloads with populated counters, the greedy-vs-DP candidate ratio,
// who re-optimizes, and that the strategies agree on the answers.
func TestPlannerStudySmoke(t *testing.T) {
	c := cells(t, smokeReport(t), "planners")
	strategies := pop.Strategies()
	if len(strategies) != 4 || len(c) != len(strategies)*(1+len(plannerWorkloadNames)) {
		t.Fatalf("%d cells for %d strategies × (planning + %d workloads)",
			len(c), len(strategies), len(plannerWorkloadNames))
	}
	if count(t, c["dp-pop/planning"], "queries") == 0 {
		t.Fatal("no TPC-H join queries selected for the planning set")
	}
	ratio := count(t, c["greedy-pop/planning"], "candidates") / count(t, c["dp-pop/planning"], "candidates")
	if !(ratio > 0 && ratio <= 0.1) {
		t.Errorf("candidate ratio %v outside (0, 0.1]", ratio)
	}

	reopts := map[string]float64{}
	for _, st := range strategies {
		if count(t, c[st.Name()+"/planning"], "candidates") <= 0 {
			t.Errorf("%s planned with no candidates", st.Name())
		}
		for _, w := range plannerWorkloadNames {
			cell := c[st.Name()+"/"+w]
			if count(t, cell, "executions") == 0 || count(t, cell, "exec_work") == 0 {
				t.Errorf("%s execution counters empty: %+v", cell.Name, cell)
			}
			if count(t, cell, "misses") == 0 {
				t.Errorf("%s: a fresh cache must miss at least once", cell.Name)
			}
			// Every strategy answers the same statements over the same data.
			if rows, want := count(t, cell, "rows"), count(t, c["dp-pop/"+w], "rows"); rows != want {
				t.Errorf("%s returned %v rows in total, dp-pop %v", cell.Name, rows, want)
			}
			reopts[st.Name()] += count(t, cell, "reopts")
		}
	}
	// The adaptive strategies must actually adapt somewhere, and greedy-only
	// must never re-optimize (POP is off).
	for _, name := range []pop.StrategyName{pop.NameDPPOP, pop.NameGreedyPOP, pop.NameReoptUnguarded} {
		if reopts[string(name)] == 0 {
			t.Errorf("%s never re-optimized across any workload", name)
		}
	}
	if n := reopts[string(pop.NameGreedyOnly)]; n != 0 {
		t.Errorf("greedy-only re-optimized %v times: POP should be disabled", n)
	}
}
