package enginetest

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/pop"
	"repro/internal/schema"
	"repro/internal/types"
)

// Joins emit only the columns read above their table set (DESIGN §11.1).
// These tests run the layouts that rule produces through every path that
// carries join rows: residual filters over columns dead above a hash join,
// joins emitting rows of no columns, and temp MVs re-read by the next
// attempt.

// hashOnly plans every join as a hash join.
func hashOnly(o *optimizer.Optimizer) { o.DisableNLJN, o.DisableMGJN = true, true }

// planHas reports whether any node of p satisfies pred.
func planHas(p *optimizer.Plan, pred func(*optimizer.Plan) bool) bool {
	found := false
	p.Walk(func(n *optimizer.Plan) {
		found = found || pred(n)
	})
	return found
}

// filteredHashJoin matches a hash join with a residual filter.
func filteredHashJoin(p *optimizer.Plan) bool {
	return p.Op == optimizer.OpHSJN && p.Filter != nil
}

// TestDifferentialJoinFilterOnDeadColumns gives the random join chains an
// equi key plus a1.val < a0.val, where neither val is read anywhere else: the
// filter reads two columns dead above the join that applies it. Each query
// runs under POP with hash joins only and is compared with brute force.
// Without a filtered hash join the test fails.
func TestDifferentialJoinFilterOnDeadColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	compared := 0
	for seed := uint64(1); seed <= 25; seed++ {
		r := &diffRNG{s: seed * 0x9E3779B97F4A7C15}
		cat, tables := buildRandomDB(t, r)
		b := joinChain(cat, tables)
		b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("a1", "val"), R: b.Col("a0", "val")})
		for i := range tables {
			b.SelectCol(fmt.Sprintf("a%d", i), "id")
		}
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		opts := pop.DefaultOptions()
		opts.Configure = hashOnly
		res, err := pop.NewRunner(cat, opts).Run(q, nil)
		if err != nil {
			t.Fatalf("seed %d: %v\nquery: %s", seed, err, q)
		}
		if d := diffRows(canon(res.Rows), canon(bruteForce(t, cat, q))); d != "" {
			t.Fatalf("seed %d (reopts=%d): %s\nquery: %s\nplan:\n%s",
				seed, res.Reopts, d, q, res.Attempts[len(res.Attempts)-1].Explain)
		}
		for _, a := range res.Attempts {
			if planHas(a.Plan, filteredHashJoin) {
				compared++
			}
		}
	}
	t.Logf("%d attempts ran a hash join with a residual filter", compared)
	if compared == 0 {
		t.Error("no hash join with a residual filter was compared")
	}
}

// layoutFixture builds three tables for the chain a(id, k, v, pad) ⋈
// b(id, ak, j, w) ⋈ c(id, x, y) on a.k = b.ak and b.j = c.x: B-tree indexes on
// both inner keys, NULL keys in a, and c much larger than a ⋈ b, so a hash
// join plan builds a ⋈ b and probes it with c.
func layoutFixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	mk := func(name string, rows int, cols []string, row func(i int) schema.Row) {
		sc := make([]schema.Column, len(cols))
		for i, c := range cols {
			sc[i] = schema.Column{Name: c, Type: types.KindInt, Nullable: true}
		}
		tab, err := cat.CreateTable(name, schema.New(sc...))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			tab.Heap.MustInsert(row(i))
		}
	}
	n := func(v int) types.Datum { return types.NewInt(int64(v)) }
	mk("a", 20, []string{"id", "k", "v", "pad"}, func(i int) schema.Row {
		k := n(i % 9)
		if i%7 == 3 {
			k = types.Null
		}
		return schema.Row{n(i), k, n(i % 5), n(-i)}
	})
	mk("b", 30, []string{"id", "ak", "j", "w"}, func(i int) schema.Row {
		return schema.Row{n(i), n(i % 12), n(i % 23), n(100 + i)}
	})
	mk("c", 400, []string{"id", "x", "y"}, func(i int) schema.Row {
		return schema.Row{n(i), n(i % 25), n(1000 + i)}
	})
	for _, ix := range [][2]string{{"b", "ak"}, {"c", "x"}} {
		if _, err := cat.CreateBTreeIndex(ix[0]+"_"+ix[1], ix[0], ix[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return cat
}

// fixtureQuery builds a query over the layout fixture's tables (each aliased
// by its name) with the column equalities in where ("a.k=b.ak"), selecting
// the columns in sel, or COUNT(*) when sel is empty.
func fixtureQuery(t *testing.T, cat *catalog.Catalog, from, where, sel []string) *logical.Query {
	t.Helper()
	b := logical.NewBuilder(cat)
	for _, tab := range from {
		b.AddTable(tab, tab)
	}
	col := func(s string) *expr.ColRef {
		alias, name, _ := strings.Cut(s, ".")
		return b.Col(alias, name)
	}
	for _, w := range where {
		l, r, _ := strings.Cut(w, "=")
		b.Where(&expr.Cmp{Op: expr.EQ, L: col(l), R: col(r)})
	}
	for _, s := range sel {
		alias, name, _ := strings.Cut(s, ".")
		b.SelectCol(alias, name)
	}
	if len(sel) == 0 {
		b.SelectAgg(logical.AggCount, nil, "n")
	}
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// forcedViolation runs q under POP with the LCEM checkpoints, of which only
// the one pick selects can fire: it fails, and the second and final
// attempt (MaxReopts 1) re-optimizes with the first attempt's temp MVs reused
// unconditionally.
func forcedViolation(t *testing.T, cat *catalog.Catalog, q *logical.Query, cfg func(*optimizer.Optimizer),
	pick func(check *optimizer.Plan) bool) *pop.Result {
	t.Helper()
	opt := optimizer.New(cat)
	cfg(opt)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	pol := pop.Policy{LCEM: true, Unchecked: true}
	placed, _ := pop.Place(plan, q, pol)
	id := -1
	placed.Walk(func(n *optimizer.Plan) {
		if n.Op == optimizer.OpCheck && pick(n) {
			id = n.Check.ID
		}
	})
	if id < 0 {
		t.Fatalf("no checkpoint to fail:\n%s", optimizer.Explain(placed, q))
	}
	pol.FailCheckIDs = map[int]bool{id: true}
	opts := pop.Options{Enabled: true, Policy: pol, MaxReopts: 1, Configure: cfg}
	res, err := pop.NewRunner(cat, opts).Run(q, nil)
	if err != nil {
		t.Fatalf("%v\n%s", err, optimizer.Explain(placed, q))
	}
	if res.Reopts != 1 || res.Attempts[0].MVsCreated == 0 {
		t.Fatalf("reopts %d, %d temp MVs; want one re-optimization over a temp MV\n%s",
			res.Reopts, res.Attempts[0].MVsCreated, res.Attempts[0].Explain)
	}
	return res
}

// readsMVOf reports whether the plan reads a temp MV of exactly the tables
// in mask.
func readsMVOf(p *optimizer.Plan, mask uint64) bool {
	return planHas(p, func(n *optimizer.Plan) bool { return n.Op == optimizer.OpMVScan && n.Tables() == mask })
}

// lcemOver selects the LCEM checkpoint whose TEMP materializes a join (or,
// with join false, a base-table access).
func lcemOver(join bool) func(*optimizer.Plan) bool {
	return func(ck *optimizer.Plan) bool {
		return ck.Check.Flavor == optimizer.LCEM && ck.Children[0].Children[0].Op.IsJoin() == join
	}
}

var nljnOnly = func(o *optimizer.Optimizer) { o.DisableHSJN, o.DisableMGJN = true, true }

// TestMVLayoutsAcrossAttempts re-optimizes into an MVSCAN of a temp MV
// promoted from a TEMP over a base-table scan (rows in the heap layout) and
// a TEMP over a join (rows in the join's pruned layout: a.v and b.j of the
// eight columns of a ⋈ b). The re-optimized plan must read the view, and the
// rows must equal brute force.
func TestMVLayoutsAcrossAttempts(t *testing.T) {
	cat := layoutFixture(t)
	two := fixtureQuery(t, cat, []string{"a", "b"}, []string{"a.k=b.ak"}, []string{"a.v", "b.w"})
	three := fixtureQuery(t, cat, []string{"a", "b", "c"}, []string{"a.k=b.ak", "b.j=c.x"}, []string{"a.v", "c.y"})
	cases := []struct {
		name string
		q    *logical.Query
		pick func(*optimizer.Plan) bool
		mv   uint64 // tables of the view the re-optimized plan reads
	}{
		{"tempOverScan", two, lcemOver(false), 1},
		{"tempOverJoin", three, lcemOver(true), 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := forcedViolation(t, cat, c.q, nljnOnly, c.pick)
			if final := res.Attempts[1]; !readsMVOf(final.Plan, c.mv) {
				t.Fatalf("re-optimized plan does not read the temp MV:\n%s", final.Explain)
			}
			if d := diffRows(canon(res.Rows), canon(bruteForce(t, cat, c.q))); d != "" {
				t.Fatalf("%s\nfirst attempt:\n%s\nre-optimized:\n%s", d, res.Attempts[0].Explain, res.Attempts[1].Explain)
			}
		})
	}
}

// TestZeroWidthJoinRows: in SELECT COUNT(*) FROM a, b WHERE a.k = b.ak no
// column is read above the join, so it emits rows of no columns. Every join
// method must count them right. A third, unconnected table makes the greedy
// planner join a ⋈ b first and feed its zero-width rows to a cartesian NLJN
// through an LCEM TEMP; failing that checkpoint promotes the TEMP's rows to a
// temp MV the re-optimized plan reads back.
func TestZeroWidthJoinRows(t *testing.T) {
	cat := layoutFixture(t)
	count := func(t *testing.T, res *pop.Result) int64 {
		t.Helper()
		if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
			t.Fatalf("COUNT(*) returned %v", res.Rows)
		}
		return res.Rows[0][0].Int()
	}
	where := []string{"a.k=b.ak"}
	q := fixtureQuery(t, cat, []string{"a", "b"}, where, nil)
	want := int64(len(bruteForce(t, cat, fixtureQuery(t, cat, []string{"a", "b"}, where, []string{"a.id"}))))
	if want == 0 {
		t.Fatal("fixture joins nothing")
	}
	isOp := func(op optimizer.OpKind, index bool) func(*optimizer.Plan) bool {
		return func(p *optimizer.Plan) bool { return p.Op == op && p.IndexJoin == index }
	}
	methods := []struct {
		name string
		cfg  func(*optimizer.Optimizer)
		has  func(*optimizer.Plan) bool // the join the plan must contain
	}{
		{"hash", hashOnly, isOp(optimizer.OpHSJN, false)},
		{"merge", func(o *optimizer.Optimizer) { o.DisableNLJN, o.DisableHSJN = true, true }, isOp(optimizer.OpMGJN, false)},
		{"naive", func(o *optimizer.Optimizer) { nljnOnly(o); o.DisableIndexJoin = true }, isOp(optimizer.OpNLJN, false)},
		{"index", nljnOnly, isOp(optimizer.OpNLJN, true)},
	}
	for _, m := range methods {
		t.Run(m.name, func(t *testing.T) {
			res, err := pop.NewRunner(cat, pop.Options{Configure: m.cfg}).Run(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !planHas(res.Attempts[0].Plan, m.has) {
				t.Fatalf("plan lacks the %s join:\n%s", m.name, res.Attempts[0].Explain)
			}
			if got := count(t, res); got != want {
				t.Fatalf("COUNT(*) = %d, brute force %d\n%s", got, want, res.Attempts[0].Explain)
			}
		})
	}
	t.Run("tempMV", func(t *testing.T) {
		from := []string{"a", "b", "c"}
		q := fixtureQuery(t, cat, from, where, nil)
		want := int64(len(bruteForce(t, cat, fixtureQuery(t, cat, from, where, []string{"a.id"}))))
		greedy := func(o *optimizer.Optimizer) { o.JoinOrder = optimizer.JoinOrderGreedy }
		res := forcedViolation(t, cat, q, greedy, lcemOver(true))
		if !readsMVOf(res.Attempts[1].Plan, 3) {
			t.Fatalf("re-optimized plan does not read the zero-width MV:\n%s", res.Attempts[1].Explain)
		}
		if got := count(t, res); got != want {
			t.Fatalf("COUNT(*) = %d, brute force %d\n%s", got, want, res.Attempts[1].Explain)
		}
	})
}
