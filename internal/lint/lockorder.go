package lint

import (
	"go/token"
	"go/types"
)

// LockOrderAnalyzer builds the module's lock-acquisition graph and flags
// the two hazards that can deadlock the parallel runtime:
//
//   - acquisition cycles: lock class A is taken while B is held on one
//     path and B while A is held on another (plan-cache shards vs entries,
//     stats feedback, metrics, trace, the executor check registry — the
//     classes the POP runtime actually nests);
//   - locks held across blocking operations: a mutex held over a channel
//     send/receive/range, select, WaitGroup/Cond Wait, or a call whose
//     closure contains one (executor.Run drains exchange channels, so it
//     inherits "may block" from gatherNode.Next automatically).
//
// Each function's ordered event stream (locks, blocks, resolved calls) is
// replayed with a held-lock set; deferred Unlocks do not release — a
// `defer mu.Unlock()` holds the lock for the rest of the function, which is
// exactly the window the hazards care about. Acquisition edges observed
// while replaying (directly or through a callee's acquired-lock closure)
// feed a global class graph; any edge that closes a directed cycle is
// reported at its first witness.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "flag lock-acquisition cycles and locks held across blocking operations",
	Run:  runLockOrder,
}

type lockEdge struct {
	from, to types.Object // lock classes
}

type lockWitness struct {
	pos      token.Pos
	fromName string
	toName   string
	fn       string
}

func runLockOrder(prog *Program, report ReportFunc) {
	g := programGraph(prog)

	// Per-function aggregate facts, computed by fixpoint over call edges:
	// blocksClosure(f) — a blocking op is reachable from f;
	// acqClosure(f)    — the lock classes some function reachable from f
	//                    acquires (collected per function below).
	blocksClosure := g.propagate(func(f *FuncNode) bool {
		for _, ev := range f.Sum.Events {
			if ev.Kind == EvBlock {
				return true
			}
		}
		return false
	})

	type held struct {
		class types.Object
		name  string
		write bool
	}

	edges := map[lockEdge]lockWitness{}
	var edgeOrder []lockEdge
	addEdge := func(from held, toClass types.Object, toName string, fn *FuncNode, pos token.Pos) {
		if from.class == nil || toClass == nil || from.class == toClass {
			return
		}
		e := lockEdge{from.class, toClass}
		if _, ok := edges[e]; ok {
			return
		}
		edges[e] = lockWitness{pos: pos, fromName: from.name, toName: toName, fn: fn.Name}
		edgeOrder = append(edgeOrder, e)
	}

	// blockWitness finds, for a callee that may block, the first blocking
	// event in its closure to name in the report.
	blockWitness := func(start *FuncNode) string {
		for _, f := range g.Closure(start) {
			for _, ev := range f.Sum.Events {
				if ev.Kind == EvBlock {
					return ev.Name + " in " + f.Name
				}
			}
		}
		return "blocking operation"
	}

	for _, fn := range g.sortedFuncs() {
		var stack []held
		for _, ev := range fn.Sum.Events {
			switch ev.Kind {
			case EvLock:
				for _, h := range stack {
					if h.class != nil && h.class == ev.Class && (h.write || ev.Write) {
						report(ev.Pos, "%s acquired in %s while already held: recursive acquisition self-deadlocks", ev.Name, fn.Name)
					}
					addEdge(h, ev.Class, ev.Name, fn, ev.Pos)
				}
				stack = append(stack, held{class: ev.Class, name: ev.Name, write: ev.Write})
			case EvUnlock:
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i].class == ev.Class {
						stack = append(stack[:i], stack[i+1:]...)
						break
					}
				}
			case EvBlock:
				if len(stack) > 0 {
					top := stack[len(stack)-1]
					report(ev.Pos, "%s held across %s in %s: a blocked holder starves every other acquirer", top.name, ev.Name, fn.Name)
				}
			case EvCall:
				if len(stack) == 0 {
					continue
				}
				for _, callee := range ev.Targets {
					if blocksClosure[callee] {
						top := stack[len(stack)-1]
						report(ev.Pos, "%s held across call to %s, which may block (%s)", top.name, callee.Name, blockWitness(callee))
						break
					}
				}
				// Locks the callee's closure acquires nest under every lock
				// currently held: record the acquisition edges.
				for _, callee := range ev.Targets {
					for _, cf := range g.Closure(callee) {
						for _, cev := range cf.Sum.Events {
							if cev.Kind != EvLock {
								continue
							}
							for _, h := range stack {
								addEdge(h, cev.Class, cev.Name, fn, ev.Pos)
							}
						}
					}
				}
			}
		}
	}

	// Cycle detection over the class graph: an edge a→b closes a cycle when
	// b already reaches a. Edges are checked in insertion (witness) order so
	// the report is deterministic and lands on the edge that completed the
	// cycle.
	adj := map[types.Object][]types.Object{}
	reaches := func(from, to types.Object) bool {
		seen := map[types.Object]bool{}
		var walk func(n types.Object) bool
		walk = func(n types.Object) bool {
			if n == to {
				return true
			}
			if seen[n] {
				return false
			}
			seen[n] = true
			for _, m := range adj[n] {
				if walk(m) {
					return true
				}
			}
			return false
		}
		return walk(from)
	}
	for _, e := range edgeOrder {
		w := edges[e]
		if reaches(e.to, e.from) {
			report(w.pos, "lock-order cycle: %s acquired while %s held in %s, but the reverse order exists elsewhere in the program", w.toName, w.fromName, w.fn)
		}
		adj[e.from] = append(adj[e.from], e.to)
	}
}
