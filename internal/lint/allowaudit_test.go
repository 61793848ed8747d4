package lint_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestEveryAllowIsLoadBearing audits the module's //poplint:allow
// annotations: every rule an annotation lists must suppress a finding on
// the line it covers. A rule that suppresses nothing is stale — the code it
// excused was fixed or removed, or interprocedural precision stopped
// flagging the site — and stale allows are holes the gate silently grows
// through, so they fail here instead.
func TestEveryAllowIsLoadBearing(t *testing.T) {
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
	_, suppressed := lint.Run(prog, lint.Analyzers(), lint.Options{})
	stale, audited := staleAllows(prog, suppressed)
	if audited == 0 {
		t.Fatal("module has no //poplint:allow annotations; the audit loaded the wrong tree")
	}
	for _, f := range stale {
		t.Errorf("%s:%d: //poplint:allow %s suppresses no finding; remove the stale rule from the annotation", f.Pos.Filename, f.Pos.Line, f.Rule)
	}
}

// TestAllowAuditChecksEveryRule pins the audit on a fixture: a two-rule
// allow whose determinism half suppresses a finding and whose maporder half
// suppresses nothing is reported for the maporder half alone.
func TestAllowAuditChecksEveryRule(t *testing.T) {
	prog := loadFixture(t, "allow/stale", "repro/internal/optimizer/fixallowstale")
	_, suppressed := lint.Run(prog, lint.Analyzers(), lint.Options{})
	stale, audited := staleAllows(prog, suppressed)
	if audited != 2 {
		t.Fatalf("audited %d annotations, want 2", audited)
	}
	want := []string{fmt.Sprintf("stale.go:%d maporder", lineContaining(t, prog, "determinism,maporder"))}
	diffStrings(t, "stale allow", want, gotFindings(stale))
}

// staleAllows audits prog's //poplint:allow annotations against the
// suppressed findings of one run. An annotation covers the line it trails,
// or the next line in its standalone form, and each rule it lists must
// suppress a finding of exactly that rule there. It returns one entry per
// rule that suppresses nothing, at the annotation's position and under that
// rule's name, and the number of well-formed annotations audited.
func staleAllows(prog *lint.Program, suppressed []lint.Finding) (stale []lint.Finding, audited int) {
	type site struct {
		file string
		line int
		rule string
	}
	hit := map[site]bool{}
	for _, f := range suppressed {
		hit[site{f.Pos.Filename, f.Pos.Line, f.Rule}] = true
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//poplint:allow")
					if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
						continue
					}
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						continue // malformed; the allow rule reports it
					}
					audited++
					pos := prog.Fset.Position(c.Pos())
					covered := pos.Line
					lineStart := pos.Offset - (pos.Column - 1)
					if len(bytes.TrimSpace(pkg.Sources[pos.Filename][lineStart:pos.Offset])) == 0 {
						covered++ // standalone form covers the next line
					}
					for _, rule := range strings.Split(fields[0], ",") {
						if !hit[site{pos.Filename, covered, rule}] {
							stale = append(stale, lint.Finding{Pos: pos, Rule: rule, Message: "stale allow"})
						}
					}
				}
			}
		}
	}
	return stale, audited
}
