package lint_test

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestDataflowAllowsAreLoadBearing pins the engine findings the CFG/dataflow
// rules produced against the real tree: each site carries a reasoned
// //poplint:allow, so with annotations honored the gate is silent and the
// sites appear among the suppressed findings, and with suppression disabled
// every one of them resurfaces. Deleting any of those annotations (or
// breaking the analysis so it no longer sees the site) fails this test.
func TestDataflowAllowsAreLoadBearing(t *testing.T) {
	type site struct {
		rule string
		file string
	}
	cases := []struct {
		pattern string
		sites   []site
	}{
		{"./internal/executor", []site{
			{lint.BlockingCancelAnalyzer.Name, "exchange.go"}, // error delivery before close, 2 sites
		}},
		{"./internal/server", []site{
			{lint.BlockingCancelAnalyzer.Name, "client.go"}, // buffered cap-1 pending channel
		}},
	}
	for _, c := range cases {
		prog, err := loader(t).LoadPatterns(c.pattern)
		if err != nil {
			t.Fatal(err)
		}
		findings, suppressed := lint.Run(prog, lint.Analyzers(), lint.Options{})
		for _, f := range findings {
			if f.Rule == lint.BatchEscapeAnalyzer.Name || f.Rule == lint.BlockingCancelAnalyzer.Name {
				t.Errorf("%s: unexpected finding with annotations honored: %s", c.pattern, f)
			}
		}
		unsuppressed, _ := lint.Run(prog, lint.Analyzers(), lint.Options{DisableAllow: true})
		for _, s := range c.sites {
			if !hasRuleFinding(suppressed, s.rule, s.file) {
				t.Errorf("%s: %s allow in %s is not load-bearing: site missing from suppressed findings", c.pattern, s.rule, s.file)
			}
			if !hasRuleFinding(unsuppressed, s.rule, s.file) {
				t.Errorf("%s: disabling allows must resurface the %s finding in %s", c.pattern, s.rule, s.file)
			}
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

// TestJSONDeterminismDataflowRules extends the eight-run byte-identity pin
// to the CFG/dataflow rules: their finding order must come entirely from the
// deterministic sort, never from map iteration inside the solvers, the
// call-graph closure, or the lock-set vote.
func TestJSONDeterminismDataflowRules(t *testing.T) {
	fixtures := []struct {
		dir    string
		asPath string
		rule   string
	}{
		{"batchescape/bad", "repro/internal/executor/fixbatch", "batchescape"},
		{"blockingcancel/bad", "repro/internal/server/fixblock", "blockingcancel"},
		{"guardedfield/bad", "repro/internal/fixguard", "guardedfield"},
	}
	for _, fx := range fixtures {
		prog := loadFixture(t, fx.dir, fx.asPath)
		var first []byte
		for i := 0; i < 8; i++ {
			findings, _ := lint.Run(prog, lint.Analyzers(), lint.Options{})
			var buf bytes.Buffer
			if err := lint.EncodeJSON(&buf, findings); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = buf.Bytes()
				if !bytes.Contains(first, []byte(fx.rule)) {
					t.Fatalf("%s: expected %s findings in JSON output:\n%s", fx.dir, fx.rule, first)
				}
				continue
			}
			if !bytes.Equal(first, buf.Bytes()) {
				t.Fatalf("%s: run %d JSON differs:\nfirst:\n%s\nnow:\n%s", fx.dir, i, first, buf.Bytes())
			}
		}
	}
}

// TestFindingsMatchProblemMatcher pins the CI annotation contract for every
// analyzer, new dataflow rules included: each rule name must fit the
// problem-matcher's code group ([a-z]+), and a rendered finding from each
// rule's bad fixture must parse under the matcher's full line regexp
// (.github/poplint-problem-matcher.json).
func TestFindingsMatchProblemMatcher(t *testing.T) {
	matcher := regexp.MustCompile(`^(.+?):(\d+): \[([a-z]+)\] (.+)$`)
	ruleCode := regexp.MustCompile(`^[a-z]+$`)
	for _, a := range lint.Analyzers() {
		if !ruleCode.MatchString(a.Name) {
			t.Errorf("analyzer %q does not fit the problem-matcher code group [a-z]+", a.Name)
		}
	}
	for _, fx := range []struct{ dir, asPath string }{
		{"batchescape/bad", "repro/internal/executor/fixbatch"},
		{"blockingcancel/bad", "repro/internal/server/fixblock"},
		{"guardedfield/bad", "repro/internal/fixguard"},
		{"overflow/bad", "repro/internal/optimizer/fixovf"},
		{"nilguard/bad", "repro/internal/fixnil"},
		{"rangeinvariant/bad", "repro/internal/fixrange"},
		{"exhaustive/bad", "repro/internal/fixexh"},
	} {
		prog := loadFixture(t, fx.dir, fx.asPath)
		findings, _ := lint.Run(prog, lint.Analyzers(), lint.Options{})
		if len(findings) == 0 {
			t.Fatalf("%s produced no findings to format", fx.dir)
		}
		for _, f := range findings {
			if !matcher.MatchString(f.String()) {
				t.Errorf("%s: finding %q does not parse under the problem matcher", fx.dir, f)
			}
		}
	}
}

// BenchmarkPoplint measures one full suite run over the executor package —
// the heaviest real target for the dataflow rules (CFG construction, both
// solvers, the retain fixpoint, and loop-reachability all fire). Loading and
// type-checking happen once in setup; the benchmark loop measures analysis
// only, which is what poplint adds on top of go build.
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
