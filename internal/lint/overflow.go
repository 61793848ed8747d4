package lint

// overflow: a tick count must not wrap int64, because POP compares metered
// work against budgets and validity ranges and a negative meter would
// corrupt every later decision. The meter saturates every add itself, so
// the one way left to write a wrapping count is a raw int64 product: a
// per-row tick rate times a batch length. Only the executor holds tick
// rates, so inside repro/internal/executor and its subpackages every int64
// `*` or `*=` the type checker did not fold to a constant is a finding,
// except in the body of mulTicksSat, the saturating helper such products go
// through. Slab-index products (int) and hash multiplies (uint64) are other
// types and pass.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// OverflowAnalyzer is the raw int64 product rule.
var OverflowAnalyzer = &Analyzer{
	Name: "overflow",
	Doc:  "int64 products in internal/executor outside mulTicksSat: tick products must saturate, not wrap",
	Run:  runOverflow,
}

// overflowScope is where tick rates live.
var overflowScope = []string{"repro/internal/executor"}

func runOverflow(prog *Program, report ReportFunc) {
	for _, pkg := range prog.Packages {
		if !inScope(pkg.Path, overflowScope) {
			continue
		}
		isInt64 := func(e ast.Expr) bool {
			b, ok := pkg.Info.TypeOf(e).(*types.Basic)
			return ok && b.Kind() == types.Int64
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					return n.Name.Name != "mulTicksSat"
				case *ast.BinaryExpr:
					if n.Op == token.MUL && isInt64(n) && pkg.Info.Types[n].Value == nil {
						report(n.Pos(), "%s is a raw int64 product that can wrap; multiply ticks through mulTicksSat", types.ExprString(n))
					}
				case *ast.AssignStmt:
					if n.Tok == token.MUL_ASSIGN && isInt64(n.Lhs[0]) {
						report(n.Pos(), "%s *= %s is a raw int64 product that can wrap; multiply ticks through mulTicksSat", types.ExprString(n.Lhs[0]), types.ExprString(n.Rhs[0]))
					}
				}
				return true
			})
		}
	}
}
