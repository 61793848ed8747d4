package pop

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/executor"
	"repro/internal/logical"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestExplainAnalyzeGolden pins the EXPLAIN ANALYZE rendering against a
// golden file. The run is fully deterministic, so every attempt is golden —
// including attempt 0, whose stats show how far each operator got before its
// CHECK violated.
// Regenerate with: go test ./internal/pop -run ExplainAnalyzeGolden -update
func TestExplainAnalyzeGolden(t *testing.T) {
	cat := correlatedFixture(t)
	q := correlatedQuery(t, cat)

	var b strings.Builder

	serial := DefaultOptions()
	serial.Analyze = true
	res, err := NewRunner(cat, serial).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reopts == 0 {
		t.Fatal("fixture must force a re-optimization")
	}
	b.WriteString("== serial ==\n")
	for i, a := range res.Attempts {
		if a.Stats == nil {
			t.Fatalf("attempt %d has no stats tree", i)
		}
		writeAttempt(&b, i, a, q)
	}

	got := b.String()
	path := filepath.Join("testdata", "explain_analyze.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("EXPLAIN ANALYZE output changed (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s", got, want)
	}

	// The violated serial attempt must flag its CHECK node.
	if !strings.Contains(got, "[violated]") {
		t.Error("no [violated] flag in the violated attempt's stats")
	}
}

// writeAttempt renders one attempt's stats tree with the deterministic
// columns only (no wall clock).
func writeAttempt(b *strings.Builder, i int, a AttemptInfo, q *logical.Query) {
	fmt.Fprintf(b, "-- attempt %d", i)
	if a.Violation != nil {
		fmt.Fprint(b, " (violated)")
	}
	b.WriteString(":\n")
	b.WriteString(executor.FormatStats(a.Stats, q, executor.AnalyzeOptions{}))
}
