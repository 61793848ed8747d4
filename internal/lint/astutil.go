package lint

// AST and type helpers shared by the rules.

import (
	"go/ast"
	"go/types"
)

// inspectShallow walks n, calling f on every node but not descending into
// nested function literals: each literal is its own FuncNode, analyzed
// against its own body.
func inspectShallow(n ast.Node, f func(ast.Node)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if n != nil {
			f(n)
		}
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
