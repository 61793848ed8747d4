package lint_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// sharedLoader memoizes one loader across all tests so the stdlib is
// type-checked from source once, not per fixture.
var sharedLoader = sync.OnceValues(func() (*lint.Loader, error) {
	return lint.NewLoader(".")
})

func loader(t *testing.T) *lint.Loader {
	t.Helper()
	ld, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	return ld
}

// loadFixture loads testdata/src/<dir> under the given fake import path,
// failing the test on any parse or type error in the fixture itself.
func loadFixture(t *testing.T, dir, asPath string) *lint.Program {
	t.Helper()
	ld := loader(t)
	before := len(ld.Errors())
	prog, err := ld.LoadDirAs(filepath.Join("testdata", "src", dir), asPath)
	if err != nil {
		t.Fatal(err)
	}
	if errs := ld.Errors(); len(errs) > before {
		t.Fatalf("fixture %s has load errors: %v", dir, errs[before:])
	}
	return prog
}

// expectedFindings parses `// want rule[ rule…]` markers from fixture
// sources into "line rule" keys (repeated rules repeat the key).
func expectedFindings(prog *lint.Program) []string {
	var want []string
	for _, pkg := range prog.Packages {
		for name, src := range pkg.Sources {
			for i, line := range strings.Split(string(src), "\n") {
				_, marker, ok := strings.Cut(line, "// want ")
				if !ok {
					continue
				}
				for _, rule := range strings.Fields(marker) {
					want = append(want, fmt.Sprintf("%s:%d %s", filepath.Base(name), i+1, rule))
				}
			}
		}
	}
	sort.Strings(want)
	return want
}

func gotFindings(findings []lint.Finding) []string {
	got := make([]string, 0, len(findings))
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s:%d %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule))
	}
	sort.Strings(got)
	return got
}

func diffStrings(t *testing.T, what string, want, got []string) {
	t.Helper()
	if strings.Join(want, "\n") != strings.Join(got, "\n") {
		t.Errorf("%s findings mismatch:\nwant:\n  %s\ngot:\n  %s",
			what, strings.Join(want, "\n  "), strings.Join(got, "\n  "))
	}
}

// ruleFixtures maps every rule to the fake import path that places its
// testdata/src/<rule> fixtures inside the rule's scope: bad/ loads under the
// path itself, every other fixture directory under the path plus the
// directory's name (good/ loads as <path>good).
var ruleFixtures = map[string]string{
	"determinism":    "repro/internal/optimizer/fixdet",
	"maporder":       "repro/internal/optimizer/fixmap",
	"droppederror":   "repro/internal/fixdrop",
	"doccomment":     "repro/internal/fixdoc",
	"goroutineleak":  "repro/internal/fixgoleak",
	"lockorder":      "repro/internal/fixlock",
	"chargeflow":     "repro/internal/executor/fixcharge",
	"poolleak":       "repro/internal/server/fixpool",
	"blockingcancel": "repro/internal/server/fixblock",
	"overflow":       "repro/internal/executor/fixovf",
	"exhaustive":     "repro/internal/fixexh",
}

// fixture is one testdata/src/<rule>/<name> package.
type fixture struct {
	rule, name, asPath string
}

func (f fixture) dir() string { return f.rule + "/" + f.name }

// ruleFixtureDirs lists every live rule's fixtures in Analyzers() order. It
// fails the test when a rule has no ruleFixtures row or lacks a bad/ or
// good/ fixture, and when a row or a testdata/src directory holding bad/ or
// good/ names no live rule.
func ruleFixtureDirs(t *testing.T) []fixture {
	t.Helper()
	live := map[string]bool{}
	var out []fixture
	for _, a := range lint.Analyzers() {
		live[a.Name] = true
		base, ok := ruleFixtures[a.Name]
		if !ok {
			t.Errorf("rule %s has no ruleFixtures row", a.Name)
			continue
		}
		entries, err := os.ReadDir(filepath.Join("testdata", "src", a.Name))
		if err != nil {
			t.Errorf("rule %s has no fixtures: %v", a.Name, err)
			continue
		}
		has := map[string]bool{}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			fx := fixture{rule: a.Name, name: e.Name(), asPath: base}
			if fx.name != "bad" {
				fx.asPath += fx.name
			}
			has[fx.name] = true
			out = append(out, fx)
		}
		for _, need := range []string{"bad", "good"} {
			if !has[need] {
				t.Errorf("rule %s has no %s/ fixture", a.Name, need)
			}
		}
	}
	for rule := range ruleFixtures {
		if !live[rule] {
			t.Errorf("ruleFixtures row %s names no live rule", rule)
		}
	}
	dirs, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() || live[d.Name()] {
			continue
		}
		for _, sub := range []string{"bad", "good"} {
			if _, err := os.Stat(filepath.Join("testdata", "src", d.Name(), sub)); err == nil {
				t.Errorf("testdata/src/%s has a %s/ fixture but names no live rule", d.Name(), sub)
			}
		}
	}
	return out
}

// badFixtures returns the bad/ fixture of each live rule.
func badFixtures(t *testing.T) []fixture {
	t.Helper()
	var out []fixture
	for _, fx := range ruleFixtureDirs(t) {
		if fx.name == "bad" {
			out = append(out, fx)
		}
	}
	return out
}

// TestGoldenFixtures runs the full suite over every rule's fixtures: each
// package must produce exactly its marked findings, good packages none at
// all.
func TestGoldenFixtures(t *testing.T) {
	for _, fx := range ruleFixtureDirs(t) {
		t.Run(fx.dir(), func(t *testing.T) {
			prog := loadFixture(t, fx.dir(), fx.asPath)
			findings, _ := lint.Run(prog, lint.Analyzers(), lint.Options{})
			diffStrings(t, fx.dir(), expectedFindings(prog), gotFindings(findings))
			if fx.name == "good" && len(findings) > 0 {
				t.Errorf("good fixture produced findings: %v", findings)
			}
		})
	}
}

// The JSON determinism pin is split three ways over the bad fixtures: the
// loop-span rule, the typed site rules overflow and exhaustive, and every
// other live rule, so each bad fixture is encoded by exactly one test.
var (
	dataflowRules = []string{"blockingcancel"}
	valueRules    = []string{"overflow", "exhaustive"}
)

// TestJSONDeterminism pins the -json contract for every rule outside
// dataflowRules and valueRules: eight runs over its bad fixture must encode
// byte-identically, so finding order comes entirely from the deterministic
// sort, never from map iteration inside the call-graph closures or the
// summary fixpoints.
func TestJSONDeterminism(t *testing.T) {
	for _, fx := range badFixtures(t) {
		if !slices.Contains(dataflowRules, fx.rule) && !slices.Contains(valueRules, fx.rule) {
			checkJSONDeterminism(t, fx)
		}
	}
}

// TestJSONDeterminismDataflowRules extends the eight-run byte-identity pin
// to blockingcancel: its finding order must never come from map iteration
// inside the loop-span audit or the call-graph closure.
func TestJSONDeterminismDataflowRules(t *testing.T) {
	for _, fx := range badFixturesOf(t, dataflowRules) {
		checkJSONDeterminism(t, fx)
	}
}

// TestJSONDeterminismValueRules extends the eight-run byte-identity pin to
// the typed site rules overflow and exhaustive: their findings must be
// ordered entirely by the deterministic sort, never by map iteration.
func TestJSONDeterminismValueRules(t *testing.T) {
	for _, fx := range badFixturesOf(t, valueRules) {
		checkJSONDeterminism(t, fx)
	}
}

// badFixturesOf returns the bad/ fixtures of the named rules, failing the
// test when a name is not a live rule.
func badFixturesOf(t *testing.T, rules []string) []fixture {
	t.Helper()
	byRule := map[string]fixture{}
	for _, fx := range badFixtures(t) {
		byRule[fx.rule] = fx
	}
	var out []fixture
	for _, r := range rules {
		fx, ok := byRule[r]
		if !ok {
			t.Errorf("rule %s has no bad/ fixture among the live rules", r)
			continue
		}
		out = append(out, fx)
	}
	return out
}

// checkJSONDeterminism encodes eight runs over fx and requires them to be
// byte-identical and to carry fx's rule.
func checkJSONDeterminism(t *testing.T, fx fixture) {
	t.Helper()
	prog := loadFixture(t, fx.dir(), fx.asPath)
	var first []byte
	for i := 0; i < 8; i++ {
		findings, _ := lint.Run(prog, lint.Analyzers(), lint.Options{})
		var buf bytes.Buffer
		if err := lint.EncodeJSON(&buf, findings); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
			if !bytes.Contains(first, []byte(`"rule": "`+fx.rule+`"`)) {
				t.Fatalf("%s: expected %s findings in JSON output:\n%s", fx.dir(), fx.rule, first)
			}
			continue
		}
		if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("%s: run %d JSON differs:\nfirst:\n%s\nnow:\n%s", fx.dir(), i, first, buf.Bytes())
		}
	}
}

// TestFindingsMatchProblemMatcher pins the CI annotation contract for every
// rule: each rule name must fit the problem matcher's code group ([a-z]+),
// and every finding from each rule's bad fixture must parse under the
// matcher's full line regexp (.github/poplint-problem-matcher.json).
func TestFindingsMatchProblemMatcher(t *testing.T) {
	matcher := regexp.MustCompile(`^(.+?):(\d+): \[([a-z]+)\] (.+)$`)
	ruleCode := regexp.MustCompile(`^[a-z]+$`)
	for _, a := range lint.Analyzers() {
		if !ruleCode.MatchString(a.Name) {
			t.Errorf("analyzer %q does not fit the problem-matcher code group [a-z]+", a.Name)
		}
	}
	for _, fx := range badFixtures(t) {
		prog := loadFixture(t, fx.dir(), fx.asPath)
		findings, _ := lint.Run(prog, lint.Analyzers(), lint.Options{})
		if len(findings) == 0 {
			t.Fatalf("%s produced no findings to format", fx.dir())
		}
		for _, f := range findings {
			if !matcher.MatchString(f.String()) {
				t.Errorf("%s: finding %q does not parse under the problem matcher", fx.dir(), f)
			}
		}
	}
}

// TestAllowPrecision pins the suppression contract: an annotation covers
// exactly one line — the line it trails, or the line below the standalone
// form — and the twin violation one line away still fires.
func TestAllowPrecision(t *testing.T) {
	prog := loadFixture(t, "allow/precision", "repro/internal/optimizer/fixallow")
	findings, suppressed := lint.Run(prog, lint.Analyzers(), lint.Options{})

	diffStrings(t, "surviving", expectedFindings(prog), gotFindings(findings))

	// The suppressed twins are the lines defining aa (trailing form) and cc
	// (standalone form, one line below the annotation).
	wantSuppressed := []string{
		fmt.Sprintf("precision.go:%d determinism", lineContaining(t, prog, "aa := ")),
		fmt.Sprintf("precision.go:%d determinism", lineContaining(t, prog, "cc := ")),
	}
	sort.Strings(wantSuppressed)
	diffStrings(t, "suppressed", wantSuppressed, gotFindings(suppressed))

	// With suppression disabled every site fires: the two marked survivors
	// plus the two annotated twins.
	all, none := lint.Run(prog, lint.Analyzers(), lint.Options{DisableAllow: true})
	if len(none) != 0 {
		t.Errorf("DisableAllow still suppressed: %v", none)
	}
	wantAll := append(expectedFindings(prog), wantSuppressed...)
	sort.Strings(wantAll)
	diffStrings(t, "DisableAllow", wantAll, gotFindings(all))
}

func lineContaining(t *testing.T, prog *lint.Program, sub string) int {
	t.Helper()
	for _, pkg := range prog.Packages {
		for _, src := range pkg.Sources {
			for i, line := range strings.Split(string(src), "\n") {
				if strings.Contains(line, sub) {
					return i + 1
				}
			}
		}
	}
	t.Fatalf("no fixture line contains %q", sub)
	return 0
}

// TestMalformedAllow pins that broken annotations are findings, not silent
// no-ops: no rule, unknown rule, and missing reason each report under the
// "allow" rule.
func TestMalformedAllow(t *testing.T) {
	prog := loadFixture(t, "allow/malformed", "repro/internal/fixallowbad")
	findings, _ := lint.Run(prog, lint.Analyzers(), lint.Options{})
	var allowFindings []lint.Finding
	for _, f := range findings {
		if f.Rule == lint.AllowRule {
			allowFindings = append(allowFindings, f)
		}
	}
	if len(allowFindings) != 3 {
		t.Fatalf("want 3 malformed-annotation findings, got %d: %v", len(allowFindings), findings)
	}
}
