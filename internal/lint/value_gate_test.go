package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestValueRuleAllowIsLoadBearing pins suppression for the overflow rule: an
// annotated overflow site disappears from findings, shows up among the
// suppressed, and resurfaces with suppression disabled — while the
// unannotated twin fires throughout.
func TestValueRuleAllowIsLoadBearing(t *testing.T) {
	prog := loadFixture(t, "allowvalue/src", "repro/internal/executor/fixallowval")

	findings, suppressed := lint.Run(prog, lint.Analyzers(), lint.Options{})
	diffStrings(t, "allowvalue honored", expectedFindings(prog), gotFindings(findings))
	if !hasRuleFinding(suppressed, "overflow", "src.go") {
		t.Error("annotated overflow site missing from suppressed findings")
	}

	unsuppressed, _ := lint.Run(prog, lint.Analyzers(), lint.Options{DisableAllow: true})
	var overflowCount int
	for _, f := range unsuppressed {
		if f.Rule == "overflow" {
			overflowCount++
		}
	}
	if overflowCount != 2 {
		t.Errorf("disabling allows resurfaced %d overflow findings, want 2 (annotated + twin)", overflowCount)
	}
}

// TestOverflowCatchesRawChargeProduct replays the defect the overflow rule
// exists for on the real executor: a copy whose chargeTicks multiplies
// perRow * int64(k) raw instead of through mulTicksSat must produce exactly
// one overflow finding, on that line.
func TestOverflowCatchesRawChargeProduct(t *testing.T) {
	const sat, raw = "mulTicksSat(perRow, int64(k))", "perRow * int64(k)"
	src := filepath.Join(loader(t).RootDir, "internal", "executor")
	dir := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	wantLine := 0
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		if e.Name() == "executor.go" {
			if n := strings.Count(text, sat); n != 1 {
				t.Fatalf("executor.go holds %d copies of %q, want 1", n, sat)
			}
			text = strings.Replace(text, sat, raw, 1)
			wantLine = strings.Count(text[:strings.Index(text, raw)], "\n") + 1
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh loader: the shared one already holds the real package under
	// this import path.
	ld, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ld.LoadDirAs(dir, "repro/internal/executor")
	if err != nil {
		t.Fatal(err)
	}
	if errs := ld.Errors(); len(errs) > 0 {
		t.Fatalf("mutated copy has load errors: %v", errs)
	}
	findings, _ := lint.Run(prog, lint.Analyzers(), lint.Options{})
	var got []lint.Finding
	for _, f := range findings {
		if f.Rule == "overflow" {
			got = append(got, f)
		}
	}
	if len(got) != 1 || filepath.Base(got[0].Pos.Filename) != "executor.go" || got[0].Pos.Line != wantLine {
		t.Fatalf("want one overflow finding at executor.go:%d, got %v", wantLine, got)
	}
}

// TestRuleCounts pins the per-rule tally cmd/poplint reports in CI: counts
// key by rule name, sum to the finding total, and unlisted rules are absent.
func TestRuleCounts(t *testing.T) {
	prog := loadFixture(t, "overflow/bad", "repro/internal/executor/fixovf")
	findings, _ := lint.Run(prog, lint.Analyzers(), lint.Options{})
	counts := lint.RuleCounts(findings)
	total := 0
	for _, rc := range counts {
		if rc.Count <= 0 {
			t.Errorf("rule %s reported non-positive count %d", rc.Rule, rc.Count)
		}
		total += rc.Count
	}
	if total != len(findings) {
		t.Errorf("rule counts sum to %d, want %d", total, len(findings))
	}
	if len(counts) == 0 || counts[0].Rule != "overflow" {
		t.Errorf("overflow fixture counts = %+v, want overflow first", counts)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i-1].Rule >= counts[i].Rule {
			t.Errorf("rule counts not sorted by rule name: %+v", counts)
		}
	}
}

func hasRuleFinding(fs []lint.Finding, rule, file string) bool {
	for _, f := range fs {
		if f.Rule == rule && strings.HasSuffix(f.Pos.Filename, file) {
			return true
		}
	}
	return false
}
