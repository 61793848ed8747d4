package optimizer

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/stats"
	"repro/internal/types"
)

// joinGraphConnected is the connectivity rule restated from the query
// rather than from the planner's reach masks: two tables of mask are
// adjacent when one join predicate reads both, or when either is estimated
// at one row or fewer, and mask is connected when that relation links all
// its tables (a union-find over the pairs inside mask).
func joinGraphConnected(pl *planner, mask uint64) bool {
	n := len(pl.q.Tables)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	in := func(i int) bool { return mask&(1<<uint(i)) != 0 }
	link := func(i, j int) {
		if in(i) && in(j) {
			parent[find(i)] = find(j)
		}
	}
	for _, p := range pl.q.JoinPredicates() {
		m := pl.q.TablesUsed(p)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if m&(1<<uint(i)) != 0 && m&(1<<uint(j)) != 0 {
					link(i, j)
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if pl.est.filteredBaseCard(i) <= 1 {
			for j := 0; j < n; j++ {
				link(i, j)
			}
		}
	}
	root := -1
	for i := 0; i < n; i++ {
		if !in(i) {
			continue
		}
		if root < 0 {
			root = find(i)
		} else if find(i) != root {
			return false
		}
	}
	return true
}

// optimizeEverySubset compiles q as Optimize does, except that the DP
// enumerates every subset of two or more tables, connected or not: the
// enumeration the connectivity rule replaced.
func optimizeEverySubset(t *testing.T, o *Optimizer, q *logical.Query) *Plan {
	t.Helper()
	pl, err := o.newPlanner(q)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.arena.release()
	full := uint64(1)<<uint(len(q.Tables)) - 1
	for size := 2; size <= len(q.Tables); size++ {
		for mask := uint64(1); mask <= full; mask++ {
			if popcount(mask) == size {
				pl.joinSplits(mask, nil)
			}
		}
	}
	join := detach(pl.bestOf(full))
	pl.narrowChosen(join)
	plan, err := pl.finish(join)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestDPEnumeratesConnectedSubsets pins which subsets the DP enumerates:
// over every workload query, cold and in a re-optimization state, a subset
// of two or more tables has a group exactly when it is connected, or when
// the query as a whole is not. The workloads must skip some subsets and
// must hold subsets that only a one-row table connects, or the rule was not
// exercised.
func TestDPEnumeratesConnectedSubsets(t *testing.T) {
	skipped, oneRow := 0, 0
	for _, w := range compileWorkloads(t) {
		cat := w.cat
		for _, reopt := range []bool{false, true} {
			for _, nq := range w.queries {
				n := len(nq.q.Tables)
				if n < 2 {
					continue
				}
				o := New(cat)
				if reopt {
					o.Feedback, o.Views = reoptState(t, cat, nq.q)
				}
				pl, err := o.newPlanner(nq.q)
				if err != nil {
					t.Fatal(err)
				}
				full := uint64(1)<<uint(n) - 1
				pl.enumerateDP(full)
				all := !joinGraphConnected(pl, full)
				for mask := uint64(1); mask <= full; mask++ {
					if popcount(mask) < 2 {
						continue
					}
					conn := joinGraphConnected(pl, mask)
					want := conn || all
					if got := len(pl.best[mask]) > 0; got != want {
						t.Errorf("reopt=%t %s: subset %s has a group %t, connected %t, query connected %t",
							reopt, nq.name, pl.est.maskString(mask), got, conn, !all)
					}
					if !want {
						skipped++
					}
					if conn && !connected(mask, pl.reach) {
						oneRow++
					}
				}
				pl.arena.release()
			}
		}
	}
	t.Logf("%d subsets skipped, %d connected only through a one-row table", skipped, oneRow)
	if skipped == 0 || oneRow == 0 {
		t.Errorf("%d subsets skipped and %d connected through a one-row table; the rule was not exercised", skipped, oneRow)
	}
}

// TestOneRowTableJoinsAnything: TPC-H Q2 and Q8 join region, filtered to one
// row, to part, with which no predicate connects it, by a naive NLJN over
// the one-row outer. The connectivity rule counts a table of at most one
// estimated row as adjacent to every table, so that plan is still found.
func TestOneRowTableJoinsAnything(t *testing.T) {
	w := compileWorkloads(t)[1]
	found := 0
	for _, nq := range w.queries {
		if nq.name != "Q2" && nq.name != "Q8" {
			continue
		}
		found++
		p, err := New(w.cat).Optimize(nq.q)
		if err != nil {
			t.Fatal(err)
		}
		alias := func(n *Plan) string {
			if n.Op != OpTableScan {
				return ""
			}
			return nq.q.Tables[n.Table].Alias
		}
		cross := 0
		p.Walk(func(n *Plan) {
			if n.Op == OpNLJN && !n.IndexJoin && n.JoinPred == nil &&
				alias(n.Children[0]) == "r" && n.Children[0].Card <= 1 && alias(n.Children[1]) == "p" {
				cross++
			}
		})
		if cross != 1 {
			t.Errorf("%s: %d NLJN(TBSCAN(r) card ≤ 1, TBSCAN(p)), want 1:\n%s", nq.name, cross, Explain(p, nq.q))
		}
	}
	if found != 2 {
		t.Fatalf("found %d of Q2 and Q8 in the TPC-H workload", found)
	}
}

// TestDisconnectedQueryEnumeratedInFull: a query whose join graph falls in
// two parts, with no table of one row to bridge them, is a true cross
// product. Its DP enumerates every subset, so it compiles to the plan,
// costs and validity ranges of the enumeration over every subset, bit for
// bit.
func TestDisconnectedQueryEnumeratedInFull(t *testing.T) {
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("dim", "d")
	b.AddTable("fact", "f")
	b.AddTable("other", "o")
	b.AddTable("dim", "d2")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("d", "d_id"), R: b.Col("f", "f_dim")})
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("o", "o_id"), R: b.Col("d2", "d_id")})
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("f", "f_id"), R: &expr.Const{Val: types.NewInt(50)}})
	b.SelectCol("d", "d_tag")
	b.SelectCol("o", "o_fact")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, fb := range []*stats.Feedback{nil, feedbackOn(q, map[uint64]float64{0b0011: 40, 0b1100: 90})} {
		o := New(cat)
		o.Feedback = fb
		pl, err := o.newPlanner(q)
		if err != nil {
			t.Fatal(err)
		}
		if connected(0b1111, pl.adjacency()) {
			t.Fatal("the fixture query is connected; it tests nothing")
		}
		pl.arena.release()
		got, err := o.Optimize(q)
		if err != nil {
			t.Fatalf("feedback %t: %v", fb != nil, err)
		}
		if got.Count(OpNLJN) == 0 {
			t.Errorf("feedback %t: no NLJN for the cross product:\n%s", fb != nil, Explain(got, q))
		}
		if g, w := planText(got), planText(optimizeEverySubset(t, o, q)); g != w {
			t.Errorf("feedback %t: plan differs from every-subset enumeration\ngot:\n%s\nwant:\n%s", fb != nil, g, w)
		}
	}
}
