// Command poplint runs the POP static-analysis suite over the module:
// pure-stdlib analyzers enforcing the determinism, error-accounting, and
// concurrency invariants the reproduction's claims rest on.
//
// Usage:
//
//	go run ./cmd/poplint ./...          # whole module (the CI gate)
//	go run ./cmd/poplint ./internal/... # a subtree
//	go run ./cmd/poplint -v ./...       # also list suppressed findings
//	go run ./cmd/poplint -json ./...    # machine-readable findings
//	go run ./cmd/poplint -rules         # describe the analyzers and exit
//	go run ./cmd/poplint -counts ./...  # per-rule tallies (CI summary)
//
//	go run ./cmd/poplint -pkg 'repro/internal/executor' ./...
//	go run ./cmd/poplint -pkg '.../server/...' ./...
//
// -pkg restricts *reporting* to packages whose import path matches the
// pattern ("..." matches any substring, Go-style), without shrinking the
// analysis: the whole program named by the patterns is still loaded, so
// whole-program rules (call-graph reachability, lock order, close
// witnesses) keep their precision — only the findings are filtered. This is
// what makes it safe for focused pre-commit runs: a clean filtered run over
// a package means exactly what the full gate would say about that package.
//
// Each finding prints as "file:line: [rule] message"; -json emits the same
// findings as a sorted JSON array (a stable, byte-identical encoding for a
// given tree, for editor and CI integrations). Exit status is 0 when
// clean, 1 when any finding survives, 2 on load or type-check errors.
// Sites opt out with `//poplint:allow <rule> <reason>` on (or directly
// above) the offending line; see internal/lint for the grammar.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/lint"
)

func main() {
	verbose := flag.Bool("v", false, "also print findings suppressed by //poplint:allow annotations")
	jsonOut := flag.Bool("json", false, "emit findings as a sorted JSON array on stdout")
	rules := flag.Bool("rules", false, "describe the analyzers and exit")
	pkgPat := flag.String("pkg", "", "report only findings in packages whose import path matches this pattern (\"...\" wildcards); the full program is still analyzed")
	counts := flag.Bool("counts", false, "print per-rule finding and suppression tallies on stderr, clean runs included")
	flag.Parse()

	if *rules {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	ld, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "poplint:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := ld.LoadPatterns(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "poplint:", err)
		os.Exit(2)
	}
	if errs := ld.Errors(); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "poplint: load:", e)
		}
		os.Exit(2)
	}

	findings, suppressed := lint.Run(prog, lint.Analyzers(), lint.Options{})
	if *pkgPat != "" {
		keep := filesOfMatchingPackages(prog, *pkgPat)
		findings = filterByFile(findings, keep)
		suppressed = filterByFile(suppressed, keep)
	}
	cwd, _ := os.Getwd()
	for i := range findings {
		findings[i] = relativize(cwd, findings[i])
	}
	if *jsonOut {
		if err := lint.EncodeJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "poplint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
		if *verbose {
			for _, f := range suppressed {
				fmt.Printf("%s (suppressed)\n", relativize(cwd, f).String())
			}
		}
	}
	if *counts {
		fmt.Fprintf(os.Stderr, "poplint: %d finding(s), %d suppressed, %d package(s)\n",
			len(findings), len(suppressed), len(prog.Packages))
		for _, rc := range lint.RuleCounts(findings) {
			fmt.Fprintf(os.Stderr, "poplint:   %-16s %d\n", rc.Rule, rc.Count)
		}
		for _, rc := range lint.RuleCounts(suppressed) {
			fmt.Fprintf(os.Stderr, "poplint:   %-16s %d suppressed\n", rc.Rule, rc.Count)
		}
	}
	if len(findings) > 0 {
		if !*counts {
			fmt.Fprintf(os.Stderr, "poplint: %d finding(s) in %d package(s)\n", len(findings), len(prog.Packages))
			for _, rc := range lint.RuleCounts(findings) {
				fmt.Fprintf(os.Stderr, "poplint:   %-16s %d\n", rc.Rule, rc.Count)
			}
		}
		os.Exit(1)
	}
}

// filesOfMatchingPackages collects the source filenames of every loaded
// package whose import path matches pattern.
func filesOfMatchingPackages(prog *lint.Program, pattern string) map[string]bool {
	keep := map[string]bool{}
	for _, pkg := range prog.Packages {
		if !matchImportPath(pkg.Path, pattern) {
			continue
		}
		for name := range pkg.Sources {
			keep[name] = true
		}
	}
	return keep
}

func filterByFile(fs []lint.Finding, keep map[string]bool) []lint.Finding {
	out := fs[:0]
	for _, f := range fs {
		if keep[f.Pos.Filename] {
			out = append(out, f)
		}
	}
	return out
}

// matchImportPath matches a Go-style package pattern against an import
// path: "..." matches any (possibly empty) substring, and — as in the go
// command — a "/..." can match nothing, so ".../server/..." matches
// "repro/internal/server" itself, not just its subpackages. A pattern
// without "..." must match the whole path exactly.
func matchImportPath(path, pattern string) bool {
	re := regexp.QuoteMeta(pattern)
	if strings.HasSuffix(re, `/\.\.\.`) {
		re = strings.TrimSuffix(re, `/\.\.\.`) + `(/.*)?`
	}
	if strings.HasPrefix(re, `\.\.\./`) {
		re = `(.*/)?` + strings.TrimPrefix(re, `\.\.\./`)
	}
	re = strings.ReplaceAll(re, `/\.\.\./`, `(/.*)?/`)
	re = strings.ReplaceAll(re, `\.\.\.`, `.*`)
	ok, err := regexp.MatchString("^"+re+"$", path)
	return err == nil && ok
}

// relativize rewrites the finding's filename relative to cwd when possible,
// for stable, readable CI output.
func relativize(cwd string, f lint.Finding) lint.Finding {
	if cwd == "" {
		return f
	}
	if rel, err := filepath.Rel(cwd, f.Pos.Filename); err == nil && !filepath.IsAbs(rel) {
		f.Pos.Filename = rel
	}
	return f
}
