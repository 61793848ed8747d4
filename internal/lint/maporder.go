package lint

import (
	"go/ast"
	"go/types"
)

// mapOrderScope lists the packages where map iteration order can reach plan
// choice, guard lists, cache signatures, or EXPLAIN output.
var mapOrderScope = []string{
	"repro/internal/optimizer",
	"repro/internal/pop",
}

// sortFuncs are the calls the analyzer recognizes as establishing a
// deterministic order, keyed by package path then function name.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Strings": true, "Ints": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// MapOrderAnalyzer flags `for … := range m` over a map in the optimizer and
// plan cache. Go randomizes map iteration per run, so any such loop that
// feeds plan signatures, guard ordering, cost tie-breaks, or emitted output
// is a reproducibility bug. The one recognized safe idiom is collect-then-
// sort: a loop whose body only appends keys/values to slices that the same
// function later sorts. Everything else must sort explicitly or carry a
// //poplint:allow maporder annotation arguing order-insensitivity.
var MapOrderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "flag nondeterministic map iteration in plan-affecting packages",
	Run:  runMapOrder,
}

func runMapOrder(prog *Program, report ReportFunc) {
	for _, pkg := range prog.Packages {
		if !inScope(pkg.Path, mapOrderScope) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch fn := n.(type) {
				case *ast.FuncDecl:
					body = fn.Body
				case *ast.FuncLit:
					body = fn.Body
				default:
					return true
				}
				if body != nil {
					checkFuncMapRanges(pkg, body, report)
				}
				return true
			})
		}
	}
}

// checkFuncMapRanges reports nondeterministic map ranges directly inside
// one function body. Nested function literals are skipped here — the outer
// Inspect visits them as functions in their own right, so their loops are
// judged against their own bodies.
func checkFuncMapRanges(pkg *Package, body *ast.BlockStmt, report ReportFunc) {
	inspectShallow(body, func(n ast.Node) {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return
		}
		t := pkg.Info.TypeOf(rng.X)
		if t == nil {
			return
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return
		}
		if rng.Key == nil {
			return // `for range m`: body cannot observe order
		}
		if isCollectThenSort(pkg, body, rng) {
			return
		}
		report(rng.Pos(), "map iteration order is nondeterministic; sort the keys first or annotate //poplint:allow maporder <why order cannot matter>")
	})
}

// isCollectThenSort recognizes the canonical deterministic-iteration idiom:
//
//	keys := make([]K, 0, len(m))
//	for k := range m { keys = append(keys, k) }
//	sort.Slice(keys, …)            // or sort.Strings / slices.Sort / …
//
// The loop body must consist solely of self-appends to local slices, and
// every appended-to slice must be passed to a recognized sort call later in
// the same function body.
func isCollectThenSort(pkg *Package, funcBody *ast.BlockStmt, rng *ast.RangeStmt) bool {
	targets := map[types.Object]bool{}
	for _, stmt := range rng.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		fun, ok := call.Fun.(*ast.Ident)
		if !ok || fun.Name != "append" || pkg.Info.Uses[fun] != nil && pkg.Info.Uses[fun].Pkg() != nil {
			return false // not the builtin append
		}
		if len(call.Args) < 2 {
			return false
		}
		first, ok := call.Args[0].(*ast.Ident)
		if !ok || first.Name != lhs.Name {
			return false
		}
		obj := identObj(pkg, lhs)
		if obj == nil {
			return false
		}
		targets[obj] = true
	}
	if len(targets) == 0 {
		return false
	}
	sorted := map[types.Object]bool{}
	inspectShallow(funcBody, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		pn := pkgNameOf(pkg.Info, sel.X)
		if pn == nil || !sortFuncs[pn.Imported().Path()][sel.Sel.Name] {
			return
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok {
			if obj := identObj(pkg, arg); obj != nil {
				sorted[obj] = true
			}
		}
	})
	for obj := range targets {
		if !sorted[obj] {
			return false
		}
	}
	return true
}

// identObj resolves an identifier to its object whether the site defines or
// uses it.
func identObj(pkg *Package, id *ast.Ident) types.Object {
	if o := pkg.Info.Uses[id]; o != nil {
		return o
	}
	return pkg.Info.Defs[id]
}
