package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// FuzzCFG throws arbitrary parseable Go at the CFG builder and pins its
// structural invariants: deterministic rebuilds (identical block/edge
// structure both times), symmetric Succs/Preds, and the entry/exit contract.
func FuzzCFG(f *testing.F) {
	seeds := []string{
		"package p\nfunc f() { x := 1; _ = x }",
		"package p\nfunc f(n int) int {\n\tif n > 0 {\n\t\treturn n\n\t}\n\treturn -n\n}",
		"package p\nfunc f() {\n\tfor i := 0; i < 9; i++ {\n\t\tif i == 2 {\n\t\t\tcontinue\n\t\t}\n\t\tif i == 5 {\n\t\t\tbreak\n\t\t}\n\t}\n}",
		"package p\nfunc f(xs []int) int {\n\ts := 0\n\tfor _, x := range xs {\n\t\ts += x\n\t}\n\treturn s\n}",
		"package p\nfunc f(ch chan int) {\n\tselect {\n\tcase v := <-ch:\n\t\t_ = v\n\tdefault:\n\t}\n}",
		"package p\nfunc f(x int) {\n\tswitch x {\n\tcase 1:\n\t\tfallthrough\n\tcase 2:\n\tdefault:\n\t}\n}",
		"package p\nfunc f() {\n\ti := 0\nloop:\n\ti++\n\tif i < 3 {\n\t\tgoto loop\n\t}\n}",
		"package p\nfunc f() {\n\tdefer println(1)\n\tdefer println(2)\nouter:\n\tfor {\n\t\tfor j := 0; ; j++ {\n\t\t\tbreak outer\n\t\t}\n\t}\n}",
		"package p\nfunc f() {\n\treturn\n\tprintln(\"dead\")\n}",
		"package p\nfunc f() { select {} }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, 0)
		if err != nil {
			t.Skip()
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a := BuildCFG(fd.Body)
			b := BuildCFG(fd.Body)
			checkCFGInvariants(t, a)
			if !sameCFGStructure(a, b) {
				t.Fatalf("rebuild produced a different structure for %s", fd.Name.Name)
			}
		}
	})
}

func checkCFGInvariants(t *testing.T, c *CFG) {
	t.Helper()
	if len(c.Blocks) < 2 {
		t.Fatalf("CFG has %d blocks, want at least entry+exit", len(c.Blocks))
	}
	if c.Exit == nil {
		t.Fatal("CFG has no exit block")
	}
	for i, b := range c.Blocks {
		if b.Index != i {
			t.Fatalf("block at position %d has Index %d", i, b.Index)
		}
		for _, s := range b.Succs {
			if !hasEdgeBack(s.Preds, b) {
				t.Fatalf("edge %d->%d missing from Preds", b.Index, s.Index)
			}
		}
		for _, p := range b.Preds {
			if !hasEdgeBack(p.Succs, b) {
				t.Fatalf("pred edge %d<-%d missing from Succs", b.Index, p.Index)
			}
		}
	}
	if len(c.Exit.Succs) != 0 {
		t.Fatalf("exit block has %d successors", len(c.Exit.Succs))
	}
}

func hasEdgeBack(list []*CFGBlock, want *CFGBlock) bool {
	for _, b := range list {
		if b == want {
			return true
		}
	}
	return false
}

func sameCFGStructure(a, b *CFG) bool {
	if len(a.Blocks) != len(b.Blocks) || (a.Exit.Index != b.Exit.Index) {
		return false
	}
	for i := range a.Blocks {
		x, y := a.Blocks[i], b.Blocks[i]
		if len(x.Nodes) != len(y.Nodes) || len(x.Succs) != len(y.Succs) || x.Loop != y.Loop {
			return false
		}
		for j := range x.Succs {
			if x.Succs[j].Index != y.Succs[j].Index {
				return false
			}
		}
	}
	return true
}
