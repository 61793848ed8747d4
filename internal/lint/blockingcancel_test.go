package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestLoopSpans pins what blockingcancel counts as repeating code. In each
// body, every call to in() must lie inside a loop span and every call to
// out() outside all of them.
func TestLoopSpans(t *testing.T) {
	cases := []struct {
		name  string
		body  string
		spans int
	}{
		{"forInitRunsOnce", "for x := out(); in() > x; x += in() {\n\tin()\n}\nout()", 1},
		{"forWithoutInit", "out()\nfor in() {\n\tin()\n}", 1},
		{"rangeCountsWhole", "for k, v := range in() {\n\tin(k, v)\n}\nout()", 1},
		{"nestedLoops", "for {\n\tfor i := in(); in(i); {\n\t\tfor range in() {\n\t\t\tin()\n\t\t}\n\t}\n}", 3},
		{"loopInFuncLitIsItsOwn", "f := func() {\n\tfor {\n\t\tout()\n\t}\n}\nout(f)", 0},
		{"gotoCycleIsNotALoop", "i := 0\nagain:\nout()\ni++\nif i < 3 {\n\tgoto again\n}", 0},
		{"unreachableAfterReturn", "for {\n\treturn\n\tin()\n}\nout()", 1},
		{"deferInLoop", "out()\nfor i := 0; i < 3; i++ {\n\tdefer in()\n}", 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := "package p\nfunc f() {\n" + c.body + "\n}\n"
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, "f.go", src, 0)
			if err != nil {
				t.Fatalf("parse: %v\n%s", err, src)
			}
			body := file.Decls[0].(*ast.FuncDecl).Body
			spans := loopSpans(body)
			if len(spans) != c.spans {
				t.Errorf("%d spans, want %d", len(spans), c.spans)
			}
			marks := 0
			ast.Inspect(body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || (id.Name != "in" && id.Name != "out") {
					return true
				}
				marks++
				if got, want := spans.contains(call.Pos()), id.Name == "in"; got != want {
					t.Errorf("%s: %s() in a loop span = %t, want %t", fset.Position(call.Pos()), id.Name, got, want)
				}
				return true
			})
			if marks == 0 {
				t.Fatal("body has no in()/out() marks")
			}
		})
	}
}
