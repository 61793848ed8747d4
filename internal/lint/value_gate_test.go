package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestValueRuleAllowIsLoadBearing pins suppression for the interprocedural
// value rule: an annotated overflow site disappears from findings, shows up
// among the suppressed, and resurfaces with suppression disabled — while
// the unannotated twin fires throughout.
func TestValueRuleAllowIsLoadBearing(t *testing.T) {
	prog := loadFixture(t, "allowvalue/src", "repro/internal/fixallowval")

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

// TestRuleCounts pins the per-rule tally cmd/poplint reports in CI: counts
// key by rule name, sum to the finding total, and unlisted rules are absent.
func TestRuleCounts(t *testing.T) {
	prog := loadFixture(t, "overflow/bad", "repro/internal/optimizer/fixovf")
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
