package lint

import (
	"go/ast"
)

// determinismScope lists the packages whose outputs must be bit-identical
// across runs and modes: simulated cost units, plan choice, cached plans,
// statistics, and the trace stream all feed golden tests and the
// byte-identical BENCH_studies.json.
var determinismScope = []string{
	"repro/internal/optimizer",
	"repro/internal/executor",
	"repro/internal/pop",
	"repro/internal/stats",
	"repro/internal/trace",
}

// nondetPackages are packages any reference into which is nondeterministic.
var nondetPackages = map[string]string{
	"math/rand":    "seeded process-locally",
	"math/rand/v2": "seeded process-locally",
	"crypto/rand":  "cryptographically random",
}

// nondetFuncs are individual functions whose results vary across runs or
// hosts. Keyed by package path, then exported name.
var nondetFuncs = map[string]map[string]string{
	"time": {
		"Now":   "wall clock",
		"Since": "wall clock",
		"Until": "wall clock",
	},
	"os": {
		"Getpid":    "process identity",
		"Getppid":   "process identity",
		"Hostname":  "host identity",
		"Getenv":    "environment-dependent",
		"Environ":   "environment-dependent",
		"LookupEnv": "environment-dependent",
	},
}

// DeterminismAnalyzer forbids wall-clock, random, and process-identity
// sources inside the packages whose outputs the reproduction pins as
// bit-identical. The analyze-mode wall-clock in the executor is the
// documented exemption, annotated //poplint:allow determinism.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbid time.Now/math/rand/os.Getpid-style nondeterminism in bit-identical packages",
	Run:  runDeterminism,
}

func runDeterminism(prog *Program, report ReportFunc) {
	for _, pkg := range prog.Packages {
		if !inScope(pkg.Path, determinismScope) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pn := pkgNameOf(pkg.Info, sel.X)
				if pn == nil {
					return true
				}
				path := pn.Imported().Path()
				if why, ok := nondetPackages[path]; ok {
					report(sel.Pos(), "%s.%s is nondeterministic (%s); annotate //poplint:allow determinism <reason> if intended", path, sel.Sel.Name, why)
					return true
				}
				if funcs, ok := nondetFuncs[path]; ok {
					if why, ok := funcs[sel.Sel.Name]; ok {
						report(sel.Pos(), "%s.%s is nondeterministic (%s); annotate //poplint:allow determinism <reason> if intended", path, sel.Sel.Name, why)
					}
				}
				return true
			})
		}
	}
}
