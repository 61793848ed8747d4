package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// shrunken sizes one workload's run for the test: few kinds, short passes.
func shrunken(t *testing.T, wl *workload, traced bool, spans string) record {
	t.Helper()
	rec, err := run(runConfig{
		wl: wl, seed: 7, minDur: time.Millisecond, traced: traced, spans: spans,
		maxKinds: 3, maxTraced: 6, log: io.Discard,
	})
	if err != nil {
		t.Fatalf("%s: %v", wl.name, err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d", wl.name, rec.Correct, rec.Failed, rec.Attempted)
	}
	return rec
}

// TestContractMatchesTables holds BENCHMARK.json and the metric and workload
// tables together: same names, same units, same order.
func TestContractMatchesTables(t *testing.T) {
	c, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(c.Workloads), len(workloads))
	}
	for i, wl := range c.Workloads {
		if wl.Name != workloads[i].name || wl.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %s (%s), the table %s (%s)", i, wl.Name, wl.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the table %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range c.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: BENCHMARK.json has %s [%s], the table %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the table %d", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: BENCHMARK.json has %s [%s], the table %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestShrunkenRun runs all four workloads small, untraced and traced twice,
// and checks what a full run promises: every metric emitted once with its
// unit, spans that nest and add up, and traced-pass counts that repeat.
func TestShrunkenRun(t *testing.T) {
	if testing.Short() {
		t.Skip("loads both databases several times")
	}
	exact := []string{
		"executor.work_total", "optimizer.candidates_per_query", "pop.reopts_per_query",
		"plancache.hit_ratio", "plancache.misses", "plancache.guard_rejects", "plancache.invalidations",
	}
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			dir := t.TempDir()
			checkMetrics(t, shrunken(t, wl, false, ""), endToEnd)
			first := shrunken(t, wl, true, filepath.Join(dir, "a.jsonl"))
			second := shrunken(t, wl, true, filepath.Join(dir, "b.jsonl"))
			checkMetrics(t, first, perLayer)
			for _, name := range exact {
				if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
					t.Errorf("%s differs between two traced passes of one seed: %v, %v", name, a, b)
				}
			}
			checkSpans(t, filepath.Join(dir, "a.jsonl"))
		})
	}
}

// checkMetrics asserts the record carries exactly the table's metrics, each
// with its unit.
func checkMetrics(t *testing.T, rec record, defs []metricDef) {
	t.Helper()
	if len(rec.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, want %d", rec.Workload, len(rec.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rec.Metrics[d.name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", rec.Workload, d.name)
		} else if m.Unit != d.unit {
			t.Errorf("%s: metric %s has unit %q, want %q", rec.Workload, d.name, m.Unit, d.unit)
		}
	}
}

// checkSpans reads a span file back and asserts the structure the README
// describes: every span lies inside its parent, no self time is negative,
// and each request's children cover at least 95% of it in total.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	for dec := json.NewDecoder(f); dec.More(); {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	byID := map[int]span{}
	children := map[int]int64{} // span id → summed child durations
	for _, s := range spans {
		if s.ID != len(byID)+1 {
			t.Fatalf("span ids are not 1..n in file order: %+v", s)
		}
		byID[s.ID] = s
	}
	var requestNS, coveredNS int64
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			t.Errorf("span ends before it starts: %+v", s)
		}
		if s.Parent == 0 {
			if s.Name != "request" {
				t.Errorf("root span is not a request: %+v", s)
			}
			requestNS += s.EndNS - s.StartNS
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Request != s.Request {
			t.Errorf("span's parent is missing or of another request: %+v", s)
			continue
		}
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Errorf("span %+v lies outside its parent %+v", s, p)
		}
		children[s.Parent] += s.EndNS - s.StartNS
		if p.Parent == 0 {
			coveredNS += s.EndNS - s.StartNS
		}
	}
	for id, ns := range children {
		if p := byID[id]; ns > p.EndNS-p.StartNS {
			t.Errorf("span %+v has negative self time: children take %d ns", p, ns)
		}
	}
	if float64(coveredNS) < 0.95*float64(requestNS) {
		t.Errorf("layer spans cover %d ns of %d ns of request spans, less than 95%%", coveredNS, requestNS)
	}
}
