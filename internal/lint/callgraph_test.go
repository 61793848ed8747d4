package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
)

// graphNode finds a call-graph node by its display name.
func graphNode(t *testing.T, g *lint.CallGraph, name string) *lint.FuncNode {
	t.Helper()
	for _, fn := range g.Funcs {
		if fn.Name == name {
			return fn
		}
	}
	t.Fatalf("call graph has no node %q", name)
	return nil
}

func calleeNames(fn *lint.FuncNode) []string {
	var out []string
	for _, c := range fn.Callees() {
		out = append(out, c.Name)
	}
	return out
}

func containsName(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

// TestCallGraphInterfaceDispatch pins the CHA resolution: a call through an
// interface must grow edges to every concrete implementation in the program,
// value and pointer receivers alike.
func TestCallGraphInterfaceDispatch(t *testing.T) {
	prog := loadFixture(t, "callgraph/hier", "repro/internal/fixcg")
	g := lint.BuildCallGraph(prog)

	speak := graphNode(t, g, "Speak")
	callees := calleeNames(speak)
	for _, want := range []string{"(Dog).Sound", "(*Cat).Sound"} {
		if !containsName(callees, want) {
			t.Errorf("Speak's callees %v missing CHA edge to %s", callees, want)
		}
	}
}

// TestCallGraphLiteralSpawn pins function-literal tracking: a `go func(){…}`
// records a spawn whose callee is the literal's own node, with the literal's
// body walked (its call to Speak is an edge), and a deferred call is an
// ordinary call edge on the deferring function.
func TestCallGraphLiteralSpawn(t *testing.T) {
	prog := loadFixture(t, "callgraph/hier", "repro/internal/fixcg")
	g := lint.BuildCallGraph(prog)

	var spawns int
	for _, sp := range g.Spawns {
		if sp.In.Name != "SpawnLit" {
			continue
		}
		spawns++
		if sp.Callee == nil {
			t.Fatal("literal spawn has no resolved callee")
		}
		if !strings.HasSuffix(sp.Callee.Name, "$lit") {
			t.Errorf("spawn callee %q is not the literal's node", sp.Callee.Name)
		}
		if !containsName(calleeNames(sp.Callee), "Speak") {
			t.Errorf("literal body not walked: callees %v missing Speak", calleeNames(sp.Callee))
		}
	}
	if spawns != 1 {
		t.Fatalf("want exactly 1 spawn in SpawnLit, got %d", spawns)
	}

	if callees := calleeNames(graphNode(t, g, "Deferred")); !containsName(callees, "Speak") {
		t.Errorf("deferred call missing from Deferred's edges %v", callees)
	}
}
