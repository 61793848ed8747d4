package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildFromSrc parses one function body out of src and builds its CFG.
func buildFromSrc(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	fn := file.Decls[0].(*ast.FuncDecl)
	return BuildCFG(fn.Body)
}

// cfgShape renders a CFG as "index[L]:succ,succ" lines for golden checks.
func cfgShape(c *CFG) string {
	var sb strings.Builder
	for _, b := range c.Blocks {
		fmt.Fprintf(&sb, "%d", b.Index)
		if b.Loop {
			sb.WriteString("L")
		}
		sb.WriteString(":")
		for i, s := range b.Succs {
			if i > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, "%d", s.Index)
		}
		sb.WriteString(";")
	}
	return sb.String()
}

func TestCFGLinear(t *testing.T) {
	c := buildFromSrc(t, "x := 1\ny := x\n_ = y")
	if len(c.Blocks) != 2 {
		t.Fatalf("linear body built %d blocks, want entry+exit", len(c.Blocks))
	}
	if len(c.Blocks[0].Nodes) != 3 {
		t.Errorf("entry holds %d nodes, want 3", len(c.Blocks[0].Nodes))
	}
	if c.Exit != c.Blocks[1] || len(c.Blocks[0].Succs) != 1 || c.Blocks[0].Succs[0] != c.Exit {
		t.Error("entry must fall through to the exit block")
	}
}

func TestCFGIfElseJoin(t *testing.T) {
	c := buildFromSrc(t, "x := 1\nif x > 0 {\nx = 2\n} else {\nx = 3\n}\n_ = x")
	// entry(0) -> then(1), else(2); both -> after(3); after -> exit(4).
	if got, want := cfgShape(c), "0:1,2;1:3;2:3;3:4;4:;"; got != want {
		t.Errorf("if/else shape = %s, want %s", got, want)
	}
}

func TestCFGIfNoElse(t *testing.T) {
	c := buildFromSrc(t, "x := 1\nif x > 0 {\nx = 2\n}\n_ = x")
	// cond edges both into then(1) and past it to after(2).
	if got, want := cfgShape(c), "0:1,2;1:2;2:3;3:;"; got != want {
		t.Errorf("if shape = %s, want %s", got, want)
	}
}

func TestCFGForLoop(t *testing.T) {
	c := buildFromSrc(t, "s := 0\nfor i := 0; i < 3; i++ {\ns += i\n}\n_ = s")
	// entry(0) -> head(1); head -> body(3) and after(2); body -> post(… )
	loops := 0
	for _, b := range c.Blocks {
		if b.Loop {
			loops++
		}
	}
	if loops < 2 {
		t.Errorf("for loop marked %d Loop blocks, want head+body(+post)", loops)
	}
	// A back edge must exist: some Loop block's successor is an earlier block.
	back := false
	for _, b := range c.Blocks {
		for _, s := range b.Succs {
			if s.Index < b.Index && s.Loop {
				back = true
			}
		}
	}
	if !back {
		t.Error("for loop built no back edge")
	}
}

func TestCFGRangeHeadHoldsStmt(t *testing.T) {
	c := buildFromSrc(t, "xs := []int{1}\nn := 0\nfor _, x := range xs {\nn += x\n}\n_ = n")
	found := false
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.RangeStmt); ok {
				found = true
				if !b.Loop {
					t.Error("range head block must be marked Loop")
				}
				if len(b.Succs) != 2 {
					t.Errorf("range head has %d successors, want body+after", len(b.Succs))
				}
			}
		}
	}
	if !found {
		t.Fatal("no block holds the RangeStmt node")
	}
}

func TestCFGBreakContinue(t *testing.T) {
	c := buildFromSrc(t, `
for i := 0; i < 9; i++ {
	if i == 2 {
		continue
	}
	if i == 5 {
		break
	}
}`)
	// continue must edge to the post/head region, break to the after block;
	// both statements terminate their block (no fallthrough successors into
	// the next statement's block from the branch itself).
	var brk, cont bool
	for _, b := range c.Blocks {
		if len(b.Nodes) == 0 {
			continue
		}
		if bs, ok := b.Nodes[len(b.Nodes)-1].(*ast.BranchStmt); ok {
			switch bs.Tok {
			case token.BREAK:
				brk = true
				for _, s := range b.Succs {
					if s.Loop {
						t.Error("break must leave the loop")
					}
				}
			case token.CONTINUE:
				cont = true
				for _, s := range b.Succs {
					if !s.Loop {
						t.Error("continue must stay in the loop")
					}
				}
			}
		}
	}
	if !brk || !cont {
		t.Fatalf("break/continue blocks not found (brk=%v cont=%v)", brk, cont)
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	c := buildFromSrc(t, `
outer:
for i := 0; i < 3; i++ {
	for j := 0; j < 3; j++ {
		if i+j > 3 {
			break outer
		}
	}
}`)
	for _, b := range c.Blocks {
		if len(b.Nodes) == 0 {
			continue
		}
		if bs, ok := b.Nodes[len(b.Nodes)-1].(*ast.BranchStmt); ok && bs.Tok == token.BREAK {
			for _, s := range b.Succs {
				if s.Loop {
					t.Error("labeled break must exit both loops")
				}
			}
			return
		}
	}
	t.Fatal("no break block found")
}

func TestCFGDefersReplayInExitLIFO(t *testing.T) {
	c := buildFromSrc(t, "defer a()\ndefer b()\nx := 1\n_ = x")
	if len(c.Exit.Nodes) != 2 {
		t.Fatalf("exit holds %d deferred nodes, want 2", len(c.Exit.Nodes))
	}
	first := c.Exit.Nodes[0].(*ast.DeferStmt)
	fn := first.Call.Fun.(*ast.Ident).Name
	if fn != "b" {
		t.Errorf("deferred calls must replay LIFO: first exit node is %s, want b", fn)
	}
}

func TestCFGUnreachableAfterReturn(t *testing.T) {
	c := buildFromSrc(t, "return\nx := 1\n_ = x")
	// The code after return parks in a block with no predecessors.
	var parked *CFGBlock
	for _, b := range c.Blocks {
		if len(b.Nodes) > 0 && len(b.Preds) == 0 && b.Index != 0 {
			parked = b
		}
	}
	if parked == nil {
		t.Fatal("unreachable code must park in a predecessor-less block")
	}
}

func TestCFGSelectClauseBlocks(t *testing.T) {
	c := buildFromSrc(t, `
var a, b chan int
select {
case v := <-a:
	_ = v
case b <- 1:
}`)
	comms := 0
	for _, b := range c.Blocks {
		if len(b.Nodes) == 0 {
			continue
		}
		switch b.Nodes[0].(type) {
		case *ast.AssignStmt, *ast.SendStmt:
			if len(b.Preds) == 1 && b.Preds[0] == c.Blocks[0] {
				comms++
			}
		}
	}
	if comms != 2 {
		t.Errorf("found %d comm clause blocks fanning out of the head, want 2", comms)
	}
}

func TestCFGEmptySelectBlocksForever(t *testing.T) {
	c := buildFromSrc(t, "select {}")
	// select{} never proceeds: the after block has no predecessors, and the
	// exit is reachable only from it (the fall-off edge), so nothing real
	// flows to exit.
	if len(c.Exit.Preds) != 1 || len(c.Exit.Preds[0].Preds) != 0 {
		t.Error("select{} must leave the fall-through path unreachable")
	}
}

func TestCFGGotoEdges(t *testing.T) {
	c := buildFromSrc(t, "i := 0\nloop:\ni++\nif i < 3 {\ngoto loop\n}")
	// goto must produce a backward edge to the labeled block.
	back := false
	for _, b := range c.Blocks {
		for _, s := range b.Succs {
			if s.Index < b.Index {
				back = true
			}
		}
	}
	if !back {
		t.Error("goto loop built no backward edge")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	c := buildFromSrc(t, `
x := 1
switch x {
case 1:
	x = 2
	fallthrough
case 2:
	x = 3
default:
	x = 4
}
_ = x`)
	// The fallthrough block must edge into the next clause's block, which
	// therefore has two predecessors (head + falling-through clause).
	multi := 0
	for _, b := range c.Blocks {
		if len(b.Preds) == 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("fallthrough built no two-predecessor clause block")
	}
}

func TestCFGDeterministicRebuild(t *testing.T) {
	body := `
x := 0
for i := 0; i < 4; i++ {
	switch {
	case i%2 == 0:
		x += i
	default:
		continue
	}
	select {
	case <-make(chan int):
	default:
	}
}
defer println(x)
return`
	a := buildFromSrc(t, body)
	b := buildFromSrc(t, body)
	if cfgShape(a) != cfgShape(b) {
		t.Errorf("rebuild differs:\n%s\n%s", cfgShape(a), cfgShape(b))
	}
}
