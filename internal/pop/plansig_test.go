package pop

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dmv"
	"repro/internal/trace"
)

// TestPlanSigStableAcrossRuns: a statement's plan fingerprints depend on the
// statement alone, not on what the process ran before it. Every DMV query,
// run twice in one process with tracing on, must give the same optimize_done
// PlanSig sequence and, attempt by attempt, the same EXPLAIN. At least one
// attempt must scan a temp MV, whose name is where a process-wide statement
// count would show.
func TestPlanSigStableAcrossRuns(t *testing.T) {
	cat := catalog.New()
	if err := dmv.Load(cat, dmv.Config{Scale: 0.05, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	qs, err := dmv.Queries(cat)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		sigs     []string
		explains []string
	}
	runAll := func() []run {
		out := make([]run, len(qs))
		for i, qi := range qs {
			col := trace.NewCollector()
			opts := DefaultOptions()
			opts.Trace = col
			res, err := NewRunner(cat, opts).Run(qi.Query, nil)
			if err != nil {
				t.Fatalf("%s: %v", qi.Name, err)
			}
			for _, ev := range col.OfKind(trace.OptimizeDone) {
				out[i].sigs = append(out[i].sigs, ev.Opt.PlanSig)
			}
			for _, a := range res.Attempts {
				out[i].explains = append(out[i].explains, a.Explain())
			}
		}
		return out
	}
	first, second := runAll(), runAll()
	mvScans := 0
	for i, qi := range qs {
		a, b := first[i], second[i]
		if strings.Join(a.sigs, " ") != strings.Join(b.sigs, " ") {
			t.Errorf("%s: optimize_done PlanSigs %v, then %v", qi.Name, a.sigs, b.sigs)
		}
		if len(a.explains) != len(b.explains) {
			t.Errorf("%s: %d attempts, then %d", qi.Name, len(a.explains), len(b.explains))
			continue
		}
		for j := range a.explains {
			if a.explains[j] != b.explains[j] {
				t.Errorf("%s attempt %d: EXPLAIN moved\nfirst:\n%s\nsecond:\n%s", qi.Name, j, a.explains[j], b.explains[j])
			}
			if strings.Contains(a.explains[j], "MVSCAN") {
				mvScans++
			}
		}
	}
	t.Logf("%d attempts scan a temp MV", mvScans)
	if mvScans == 0 {
		t.Error("no attempt scans a temp MV; the test is vacuous")
	}
}
