package lint

// AST and type helpers shared by the rules.

import (
	"go/ast"
	"go/types"
)

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// inspectNoLit walks n in source order without descending into function
// literal bodies (each literal is its own FuncNode with its own analysis)
// or into a range statement's body: the CFG carries the whole RangeStmt in
// its loop-head block while the body's statements live in successor blocks,
// so descending would re-visit body sites out of their flow context — a
// select send would lose its arm.
func inspectNoLit(n ast.Node, f func(ast.Node)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case nil:
			return false
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			f(n)
			if n.Key != nil {
				inspectNoLit(n.Key, f)
			}
			if n.Value != nil {
				inspectNoLit(n.Value, f)
			}
			inspectNoLit(n.X, f)
			return false
		}
		f(n)
		return true
	})
}

// namedTypeOf returns the type name behind t and any pointers to it, or nil.
func namedTypeOf(t types.Type) *types.TypeName {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt.Obj()
		default:
			return nil
		}
	}
}
