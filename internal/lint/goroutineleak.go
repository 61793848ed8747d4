package lint

import "go/types"

// GoroutineLeakAnalyzer proves a join for every `go` statement in the
// engine packages. The POP parallel runtime promises deadlock-free DOP-N
// runs and bounded goroutine lifetimes; a spawn without a join either leaks
// (worker outlives the query) or deadlocks Close. A spawn counts as joined
// when the interprocedural summaries show one of the two idioms the runtime
// uses:
//
//   - WaitGroup pairing: the spawned closure calls Done on a WaitGroup
//     class whose Add is reachable from the spawner and whose Wait appears
//     somewhere in the program (gather workers);
//   - channel close: the spawned closure closes a channel class that some
//     function in the program receives from or ranges over (closer
//     goroutines — the receive completing proves the closer ran).
//
// A `go` whose target cannot be resolved statically is flagged too: a join
// that cannot be seen cannot be proven.
var GoroutineLeakAnalyzer = &Analyzer{
	Name: "goroutineleak",
	Doc:  "every go statement in internal/* must have a provable join (WaitGroup pairing or channel close)",
	Run:  runGoroutineLeak,
}

var goroutineLeakScope = []string{"repro/internal"}

func runGoroutineLeak(prog *Program, report ReportFunc) {
	g := programGraph(prog)

	// Program-wide join anchors: WaitGroup classes somebody Waits on, and
	// channel classes somebody receives from or ranges over.
	waited := map[types.Object]bool{}
	received := map[types.Object]bool{}
	for _, f := range g.Funcs {
		for _, op := range f.Sum.WGOps {
			if op.Kind == WGWait && op.Class != nil {
				waited[op.Class] = true
			}
		}
		for _, op := range f.Sum.ChanOps {
			if (op.Kind == ChanRecv || op.Kind == ChanRange) && op.Class != nil {
				received[op.Class] = true
			}
		}
	}

	for _, sp := range g.Spawns {
		if !inScope(sp.Pkg.Path, goroutineLeakScope) {
			continue
		}
		if sp.Callee == nil {
			report(sp.Pos, "goroutine target is not statically resolvable, so no join can be proven; spawn a named function or literal")
			continue
		}
		if spawnJoined(g, sp, waited, received) {
			continue
		}
		report(sp.Pos, "goroutine has no provable join: the spawned closure neither calls Done on a WaitGroup the spawner Adds to (with a Wait in the program) nor closes a channel the program receives from")
	}
}

// spawnJoined checks the two join idioms against the spawned and spawner
// closures.
func spawnJoined(g *CallGraph, sp *GoSpawn, waited, received map[types.Object]bool) bool {
	spawned := g.Closure(sp.Callee)
	spawner := g.Closure(sp.In)

	// WaitGroup pairing: Done in the spawned closure, Add reachable from
	// the spawner, Wait anywhere.
	addClasses := map[types.Object]bool{}
	for _, f := range spawner {
		for _, op := range f.Sum.WGOps {
			if op.Kind == WGAdd && op.Class != nil {
				addClasses[op.Class] = true
			}
		}
	}
	for _, f := range spawned {
		for _, op := range f.Sum.WGOps {
			if op.Kind == WGDone && op.Class != nil && addClasses[op.Class] && waited[op.Class] {
				return true
			}
		}
	}

	// Channel close: the spawned closure closes a channel the program
	// receives from — the receive completing is the join witness.
	for _, f := range spawned {
		for _, op := range f.Sum.ChanOps {
			if op.Kind == ChanClose && op.Class != nil && received[op.Class] {
				return true
			}
		}
	}
	return false
}
