package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestModuleIsLintClean is the in-tree mirror of the CI poplint gate: the
// full suite over every package in the module must report nothing.
func TestModuleIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	ld := loader(t)
	prog, err := ld.LoadPatterns("./...")
	if err != nil {
		t.Fatal(err)
	}
	if errs := ld.Errors(); len(errs) > 0 {
		t.Fatalf("load errors: %v", errs)
	}
	if len(prog.Packages) < 20 {
		t.Fatalf("expected the whole module, loaded only %d packages", len(prog.Packages))
	}
	findings, _ := lint.Run(prog, lint.Analyzers(), lint.Options{})
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestDataflowAllowsAreLoadBearing pins the blockingcancel findings the
// engine produces against the real tree: each site carries a reasoned
// //poplint:allow, so with annotations honored the gate is silent and the
// sites appear among the suppressed findings, and with suppression disabled
// every one of them resurfaces. Deleting any of those annotations (or
// breaking the analysis so it no longer sees the site) fails this test.
func TestDataflowAllowsAreLoadBearing(t *testing.T) {
	cases := []struct {
		pattern string
		file    string
	}{
		{"./internal/executor", "exchange.go"}, // a gather worker's error delivery, 1 site
		{"./internal/server", "client.go"},     // buffered cap-1 pending channel
	}
	rule := lint.BlockingCancelAnalyzer.Name
	for _, c := range cases {
		prog, err := loader(t).LoadPatterns(c.pattern)
		if err != nil {
			t.Fatal(err)
		}
		findings, suppressed := lint.Run(prog, lint.Analyzers(), lint.Options{})
		for _, f := range findings {
			if f.Rule == rule {
				t.Errorf("%s: unexpected finding with annotations honored: %s", c.pattern, f)
			}
		}
		unsuppressed, _ := lint.Run(prog, lint.Analyzers(), lint.Options{DisableAllow: true})
		if !hasRuleFinding(suppressed, rule, c.file) {
			t.Errorf("%s: %s allow in %s is not load-bearing: site missing from suppressed findings", c.pattern, rule, c.file)
		}
		if !hasRuleFinding(unsuppressed, rule, c.file) {
			t.Errorf("%s: disabling allows must resurface the %s finding in %s", c.pattern, rule, c.file)
		}
	}
}

// TestExecutorWallClockAnnotationIsLoadBearing pins that removing the
// //poplint:allow from the analyze-mode wall-clock site in
// internal/executor makes the gate fail: with annotations honored the
// determinism analyzer is silent there, and with suppression disabled the
// same site resurfaces as a finding.
func TestExecutorWallClockAnnotationIsLoadBearing(t *testing.T) {
	prog, err := loader(t).LoadPatterns("./internal/executor")
	if err != nil {
		t.Fatal(err)
	}
	findings, suppressed := lint.Run(prog, lint.Analyzers(), lint.Options{})
	for _, f := range findings {
		if f.Rule == lint.DeterminismAnalyzer.Name {
			t.Errorf("unexpected determinism finding with annotations honored: %s", f)
		}
	}
	if !hasWallClockFinding(suppressed) {
		t.Errorf("expected the executor wall-clock site among suppressed findings, got %v", suppressed)
	}

	unsuppressed, _ := lint.Run(prog, lint.Analyzers(), lint.Options{DisableAllow: true})
	if !hasWallClockFinding(unsuppressed) {
		t.Errorf("removing the annotation must resurface the wall-clock finding, got %v", unsuppressed)
	}
}

func hasWallClockFinding(fs []lint.Finding) bool {
	for _, f := range fs {
		if f.Rule == lint.DeterminismAnalyzer.Name &&
			strings.HasSuffix(f.Pos.Filename, "executor.go") &&
			strings.Contains(f.Message, "time.Now") {
			return true
		}
	}
	return false
}

// BenchmarkPoplint measures one cold suite run over the executor and server
// packages — the heaviest real targets: call-graph construction and
// loop-reachability both fire, and Run drops the call graph on return, so
// every iteration builds it again. Loading and type-checking happen once in
// setup; the benchmark loop measures analysis only, which is what poplint
// adds on top of go build.
func BenchmarkPoplint(b *testing.B) {
	ld, err := sharedLoader()
	if err != nil {
		b.Fatal(err)
	}
	prog, err := ld.LoadPatterns("./internal/executor", "./internal/server")
	if err != nil {
		b.Fatal(err)
	}
	if errs := ld.Errors(); len(errs) > 0 {
		b.Fatalf("load errors: %v", errs)
	}
	analyzers := lint.Analyzers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		findings, _ := lint.Run(prog, analyzers, lint.Options{})
		if len(findings) != 0 {
			b.Fatalf("benchmark tree must be lint-clean, got %v", findings)
		}
	}
}
