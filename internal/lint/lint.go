package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer hit, addressable as file:line.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
}

// Analyzer is one named rule. Run is invoked once per Program (not per
// package) so rules that need whole-program views — the call graph the
// interprocedural rules share — get them for free.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program, report ReportFunc)
}

// ReportFunc records a finding at pos. The rule name is attached by the
// harness; analyzers only supply position and message.
type ReportFunc func(pos token.Pos, format string, args ...any)

// AllowRule is the rule name under which malformed //poplint:allow
// annotations are themselves reported.
const AllowRule = "allow"

const allowPrefix = "//poplint:allow"

// Analyzers returns the full POP suite, nine rules in reporting order: the
// three intra-procedural rules from the original suite, the doc-comment
// gate, the three interprocedural rules built on the call graph, the typed
// int64-product rule overflow, and the enum-switch rule.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		MapOrderAnalyzer,
		DroppedErrorAnalyzer,
		DocCommentAnalyzer,
		GoroutineLeakAnalyzer,
		LockOrderAnalyzer,
		ChargeFlowAnalyzer,
		OverflowAnalyzer,
		ExhaustiveAnalyzer,
	}
}

// Options configures a lint run.
type Options struct {
	// DisableAllow ignores every //poplint:allow annotation, reporting the
	// findings they would have suppressed. The suppression tests use this to
	// prove annotations are load-bearing: a suppressed site must resurface
	// when suppression is off.
	DisableAllow bool
}

// Run executes the analyzers over the program and returns surviving
// findings plus the findings suppressed by //poplint:allow annotations,
// both sorted by file, line, column, rule.
func Run(prog *Program, analyzers []*Analyzer, opts Options) (findings, suppressed []Finding) {
	defer func() { prog.graph = nil }()
	allows, allowFindings := collectAllows(prog)
	if !opts.DisableAllow {
		findings = append(findings, allowFindings...)
	}
	for _, a := range analyzers {
		a.Run(prog, func(pos token.Pos, format string, args ...any) {
			f := Finding{
				Pos:     prog.Fset.Position(pos),
				Rule:    a.Name,
				Message: fmt.Sprintf(format, args...),
			}
			if !opts.DisableAllow && allows[allowKey{f.Pos.Filename, f.Pos.Line, a.Name}] {
				suppressed = append(suppressed, f)
				return
			}
			findings = append(findings, f)
		})
	}
	sortFindings(findings)
	sortFindings(suppressed)
	return findings, suppressed
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// allowKey identifies one (file, line, rule) suppression.
type allowKey struct {
	file string
	line int
	rule string
}

// collectAllows parses every //poplint:allow annotation in the program.
// A trailing annotation (code precedes it on the line) covers its own line;
// an annotation alone on a line covers exactly the next line. Malformed
// annotations (no rule, unknown rule, or missing reason) are returned as
// findings under the "allow" rule so typos fail the gate instead of
// silently suppressing nothing.
func collectAllows(prog *Program) (map[allowKey]bool, []Finding) {
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	allows := map[allowKey]bool{}
	var bad []Finding
	malformed := func(pos token.Position, msg string) {
		bad = append(bad, Finding{Pos: pos, Rule: AllowRule, Message: msg})
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, allowPrefix) {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					rest := strings.TrimPrefix(c.Text, allowPrefix)
					if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
						continue // e.g. //poplint:allowance — not ours
					}
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						malformed(pos, "malformed annotation: want //poplint:allow <rule>[,<rule>...] <reason>")
						continue
					}
					rules := strings.Split(fields[0], ",")
					ok := true
					for _, r := range rules {
						if !known[r] {
							malformed(pos, fmt.Sprintf("unknown rule %q in //poplint:allow (known: %s)", r, strings.Join(knownRules(known), ", ")))
							ok = false
						}
					}
					if !ok {
						continue
					}
					line := pos.Line
					if !codePrecedes(pkg, pos) {
						line++ // standalone comment covers the next line only
					}
					for _, r := range rules {
						allows[allowKey{pos.Filename, line, r}] = true
					}
				}
			}
		}
	}
	sortFindings(bad)
	return allows, bad
}

func knownRules(known map[string]bool) []string {
	out := make([]string, 0, len(known))
	for r := range known {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// codePrecedes reports whether non-whitespace source text precedes pos on
// its line — i.e. the annotation trails code rather than standing alone.
func codePrecedes(pkg *Package, pos token.Position) bool {
	src, ok := pkg.Sources[pos.Filename]
	if !ok {
		return false
	}
	lineStart := pos.Offset - (pos.Column - 1)
	if lineStart < 0 || pos.Offset > len(src) {
		return false
	}
	return len(bytes.TrimSpace(src[lineStart:pos.Offset])) > 0
}

// inScope reports whether pkgPath falls under any of the given import-path
// prefixes (exact match or subdirectory).
func inScope(pkgPath string, prefixes []string) bool {
	for _, p := range prefixes {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// pkgNameOf resolves an identifier used as the operand of a selector to the
// imported package it names, or nil.
func pkgNameOf(info *types.Info, e ast.Expr) *types.PkgName {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := info.Uses[id].(*types.PkgName)
	return pn
}
