package executor

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/types"
)

// pairFixture builds two tables with controllable contents for join corner
// cases. Values may include NULL keys and duplicates.
func pairFixture(t *testing.T, left, right []types.Datum) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	lt, err := c.CreateTable("lt", schema.New(
		schema.Column{Name: "lk", Type: types.KindInt, Nullable: true},
		schema.Column{Name: "lv", Type: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range left {
		lt.Heap.MustInsert(schema.Row{k, types.NewInt(int64(i))})
	}
	rt, err := c.CreateTable("rt", schema.New(
		schema.Column{Name: "rk", Type: types.KindInt, Nullable: true},
		schema.Column{Name: "rv", Type: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range right {
		rt.Heap.MustInsert(schema.Row{k, types.NewInt(int64(100 + i))})
	}
	if err := c.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return c
}

// joinPair runs SELECT l.lk, r.rk FROM lt l, rt r WHERE l.lk = r.rk under
// the given optimizer config and returns the row count.
func joinPair(t *testing.T, cat *catalog.Catalog, cfg func(*optimizer.Optimizer)) int {
	t.Helper()
	b := logical.NewBuilder(cat)
	b.AddTable("lt", "l")
	b.AddTable("rt", "r")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("l", "lk"), R: b.Col("r", "rk")})
	b.SelectCol("l", "lk")
	b.SelectCol("r", "rv")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat)
	cfg(opt)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(cat, q, nil, opt.Model.Params, &Meter{})
	if err != nil {
		t.Fatal(err)
	}
	root, err := ex.Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Run(root)
	if err != nil {
		t.Fatalf("%v\n%s", err, optimizer.Explain(plan, q))
	}
	return len(rows)
}

func ints(vs ...int64) []types.Datum {
	out := make([]types.Datum, len(vs))
	for i, v := range vs {
		out[i] = types.NewInt(v)
	}
	return out
}

var joinConfigs = map[string]func(*optimizer.Optimizer){
	"hash":  func(o *optimizer.Optimizer) { o.DisableNLJN = true; o.DisableMGJN = true },
	"merge": func(o *optimizer.Optimizer) { o.DisableNLJN = true; o.DisableHSJN = true },
	"naive": func(o *optimizer.Optimizer) { o.DisableHSJN = true; o.DisableMGJN = true; o.DisableIndexJoin = true },
}

func TestJoinCornerCases(t *testing.T) {
	cases := []struct {
		name        string
		left, right []types.Datum
		want        int
	}{
		{"bothEmpty", nil, nil, 0},
		{"leftEmpty", nil, ints(1, 2, 3), 0},
		{"rightEmpty", ints(1, 2, 3), nil, 0},
		{"noOverlap", ints(1, 2, 3), ints(4, 5, 6), 0},
		{"oneMatch", ints(1, 2, 3), ints(3, 4, 5), 1},
		{"dupLeft", ints(7, 7, 7, 8), ints(7, 9), 3},
		{"dupRight", ints(7, 8), ints(7, 7, 7, 9), 3},
		{"dupBoth", ints(5, 5, 6), ints(5, 5, 5, 6), 7}, // 2*3 + 1*1
		{"allSame", ints(1, 1, 1), ints(1, 1), 6},
		{"nullsNeverMatch", []types.Datum{types.Null, types.NewInt(1), types.Null},
			[]types.Datum{types.Null, types.NewInt(1)}, 1},
		{"allNulls", []types.Datum{types.Null, types.Null}, []types.Datum{types.Null}, 0},
		{"firstAndLast", ints(0, 50, 99), ints(0, 99), 2},
	}
	for _, c := range cases {
		for method, cfg := range joinConfigs {
			t.Run(c.name+"/"+method, func(t *testing.T) {
				cat := pairFixture(t, c.left, c.right)
				if got := joinPair(t, cat, cfg); got != c.want {
					t.Errorf("%s/%s: got %d rows, want %d", c.name, method, got, c.want)
				}
			})
		}
	}
}

func TestHashJoinSpillCharges(t *testing.T) {
	// A build side far bigger than the memory budget must charge spill work.
	left := make([]types.Datum, 200)
	right := make([]types.Datum, 5000)
	for i := range left {
		left[i] = types.NewInt(int64(i))
	}
	for i := range right {
		right[i] = types.NewInt(int64(i % 200))
	}
	cat := pairFixture(t, left, right)
	b := logical.NewBuilder(cat)
	b.AddTable("rt", "r") // big side
	b.AddTable("lt", "l")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("r", "rk"), R: b.Col("l", "lk")})
	b.SelectCol("r", "rv")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	run := func(mem float64) float64 {
		opt := optimizer.New(cat)
		opt.DisableNLJN = true
		opt.DisableMGJN = true
		opt.Model.Params.MemoryBytes = mem
		plan, err := opt.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		meter := &Meter{}
		ex, _ := NewExecutor(cat, q, nil, opt.Model.Params, meter)
		root, err := ex.Build(plan)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(root); err != nil {
			t.Fatal(err)
		}
		return meter.Work()
	}
	roomy := run(1 << 30)
	tight := run(1 << 10)
	if tight <= roomy {
		t.Errorf("spilling run (%v) must cost more than in-memory (%v)", tight, roomy)
	}
}

func TestSortStability(t *testing.T) {
	// Rows with equal keys must keep their input order (SliceStable).
	c := catalog.New()
	tab, err := c.CreateTable("s", schema.New(
		schema.Column{Name: "k", Type: types.KindInt},
		schema.Column{Name: "seq", Type: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tab.Heap.MustInsert(schema.Row{types.NewInt(int64(i % 3)), types.NewInt(int64(i))})
	}
	if err := c.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	b := logical.NewBuilder(c)
	b.AddTable("s", "s")
	b.SelectCol("s", "k")
	b.SelectCol("s", "seq")
	b.OrderBy(b.Col("s", "k"), false)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(c)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := NewExecutor(c, q, nil, opt.Model.Params, &Meter{})
	root, _ := ex.Build(plan)
	rows, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	prevKey, prevSeq := int64(-1), int64(-1)
	for _, r := range rows {
		k, seq := r[0].Int(), r[1].Int()
		if k == prevKey && seq < prevSeq {
			t.Fatalf("sort not stable: seq %d after %d within key %d", seq, prevSeq, k)
		}
		if k < prevKey {
			t.Fatalf("not sorted: key %d after %d", k, prevKey)
		}
		prevKey, prevSeq = k, seq
	}
}

func TestAggregationEdges(t *testing.T) {
	c := catalog.New()
	tab, err := c.CreateTable("e", schema.New(
		schema.Column{Name: "g", Type: types.KindInt},
		schema.Column{Name: "v", Type: types.KindInt, Nullable: true},
	))
	if err != nil {
		t.Fatal(err)
	}
	// Group 1 has only NULL values; group 2 mixes.
	tab.Heap.MustInsert(schema.Row{types.NewInt(1), types.Null})
	tab.Heap.MustInsert(schema.Row{types.NewInt(1), types.Null})
	tab.Heap.MustInsert(schema.Row{types.NewInt(2), types.NewInt(10)})
	tab.Heap.MustInsert(schema.Row{types.NewInt(2), types.Null})
	if err := c.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	b := logical.NewBuilder(c)
	b.AddTable("e", "e")
	b.SelectCol("e", "g")
	b.SelectAgg(logical.AggCount, nil, "n")              // COUNT(*) counts rows
	b.SelectAgg(logical.AggCount, b.Col("e", "v"), "nv") // COUNT(v) skips NULLs
	b.SelectAgg(logical.AggSum, b.Col("e", "v"), "sv")
	b.SelectAgg(logical.AggMin, b.Col("e", "v"), "minv")
	b.SelectAgg(logical.AggAvg, b.Col("e", "v"), "avgv")
	b.GroupBy(b.Col("e", "g"))
	b.OrderBy(b.Col("e", "g"), false)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(c)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := NewExecutor(c, q, nil, opt.Model.Params, &Meter{})
	root, _ := ex.Build(plan)
	rows, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups = %d", len(rows))
	}
	g1 := rows[0]
	if g1[1].Int() != 2 || g1[2].Int() != 0 {
		t.Errorf("group 1: COUNT(*)=%v COUNT(v)=%v, want 2/0", g1[1], g1[2])
	}
	if !g1[3].IsNull() || !g1[4].IsNull() || !g1[5].IsNull() {
		t.Errorf("group 1: SUM/MIN/AVG over all NULLs must be NULL: %v", g1)
	}
	g2 := rows[1]
	if g2[1].Int() != 2 || g2[2].Int() != 1 || g2[3].Float() != 10 {
		t.Errorf("group 2: %v", g2)
	}
}

func TestEmptyAggregationYieldsOneRow(t *testing.T) {
	c := catalog.New()
	if _, err := c.CreateTable("empty", schema.New(
		schema.Column{Name: "x", Type: types.KindInt},
	)); err != nil {
		t.Fatal(err)
	}
	if err := c.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	b := logical.NewBuilder(c)
	b.AddTable("empty", "e")
	b.SelectAgg(logical.AggCount, nil, "n")
	b.SelectAgg(logical.AggSum, b.Col("e", "x"), "s")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(c)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := NewExecutor(c, q, nil, opt.Model.Params, &Meter{})
	root, _ := ex.Build(plan)
	rows, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("ungrouped aggregate over empty input must yield 1 row, got %d", len(rows))
	}
	if rows[0][0].Int() != 0 || !rows[0][1].IsNull() {
		t.Errorf("COUNT(*)=0 and SUM=NULL expected, got %v", rows[0])
	}
}

// TestAggregateArgumentKinds: SUM and AVG of a string are an error, not a
// panic; over no rows they are NULL, as for any kind; COUNT, MIN and MAX of a
// string work.
func TestAggregateArgumentKinds(t *testing.T) {
	c := catalog.New()
	tab, err := c.CreateTable("s", schema.New(
		schema.Column{Name: "x", Type: types.KindInt},
		schema.Column{Name: "name", Type: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"b", "a", "c"} {
		tab.Heap.MustInsert(schema.Row{types.NewInt(int64(i + 1)), types.NewString(name)})
	}
	if err := c.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		agg   logical.AggKind
		col   string
		empty bool // WHERE s.x > 9: no row reaches the aggregate
		want  string
		err   string
	}{
		{agg: logical.AggSum, col: "name", err: "executor: SUM of VARCHAR, not a number"},
		{agg: logical.AggAvg, col: "name", err: "executor: AVG of VARCHAR, not a number"},
		{agg: logical.AggSum, col: "name", empty: true, want: "NULL"},
		{agg: logical.AggAvg, col: "name", empty: true, want: "NULL"},
		{agg: logical.AggSum, col: "x", want: "6"},
		{agg: logical.AggCount, col: "name", want: "3"},
		{agg: logical.AggMin, col: "name", want: "'a'"},
		{agg: logical.AggMax, col: "name", want: "'c'"},
	}
	for _, tc := range cases {
		b := logical.NewBuilder(c)
		b.AddTable("s", "s")
		b.SelectAgg(tc.agg, b.Col("s", tc.col), "v")
		if tc.empty {
			b.Where(&expr.Cmp{Op: expr.GT, L: b.Col("s", "x"), R: &expr.Const{Val: types.NewInt(9)}})
		}
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		opt := optimizer.New(c)
		plan, err := opt.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		m := &Meter{}
		ex, _ := NewExecutor(c, q, nil, opt.Model.Params, m)
		root, _ := ex.Build(plan)
		rows, err := Run(root)
		name := fmt.Sprintf("%s(%s) empty=%t", tc.agg, tc.col, tc.empty)
		switch {
		case tc.err != "":
			if err == nil || err.Error() != tc.err {
				t.Errorf("%s: err %v, want %q", name, err, tc.err)
			}
			if m.Work() == 0 {
				t.Errorf("%s: the rows absorbed before the error were not charged", name)
			}
		case err != nil:
			t.Errorf("%s: %v", name, err)
		case len(rows) != 1 || rows[0][0].String() != tc.want:
			t.Errorf("%s: rows %v, want [[%s]]", name, rows, tc.want)
		}
	}
}

// TestNaiveNLJNRowsDoNotAliasScratch: the naive nested-loop join evaluates
// its filter on a node-owned scratch row and must hand out copies. Scribbling
// over every row of every returned batch — including the outer prefix the
// scratch keeps across the inner rescan — must not change any later row.
func TestNaiveNLJNRowsDoNotAliasScratch(t *testing.T) {
	cat := pairFixture(t, ints(5, 5, 6), ints(5, 5, 5, 6))
	b := logical.NewBuilder(cat)
	b.AddTable("lt", "l")
	b.AddTable("rt", "r")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("l", "lk"), R: b.Col("r", "rk")})
	b.SelectCol("l", "lv")
	b.SelectCol("r", "rv")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat)
	joinConfigs["naive"](opt)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	pull := func(scribble bool) []string {
		ex, err := NewExecutor(cat, q, nil, opt.Model.Params, &Meter{})
		if err != nil {
			t.Fatal(err)
		}
		root, err := ex.Build(plan)
		if err != nil {
			t.Fatal(err)
		}
		var join *nljnNode
		Walk(root, func(n Node) {
			if j, ok := n.(*nljnNode); ok {
				join = j
			}
		})
		if join == nil || join.probe != nil {
			t.Fatalf("no naive NLJN in plan:\n%s", optimizer.Explain(plan, q))
		}
		if err := join.Open(); err != nil {
			t.Fatal(err)
		}
		var out []string
		for {
			// Three rows a pull: the seven results span three batches and two
			// inner rescans fall inside a batch.
			b, err := join.NextBatch(3)
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			for _, row := range b.Rows {
				out = append(out, row.String())
				if scribble {
					for i := range row {
						row[i] = types.NewInt(-1)
					}
				}
			}
		}
		if err := join.Close(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want, got := pull(false), pull(true)
	if len(want) != 7 {
		t.Fatalf("reference pass returned %d rows, want 7", len(want))
	}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("row %d changed after earlier rows were overwritten:\n got %v\nwant %v", i, got, want)
		}
	}
}

// TestNaiveNLJNTestsPairInPlace: a naive NLJN whose filter conjuncts all
// compile to comparisons reads both input rows in place and never fills its
// pair scratch; a conjunct with arithmetic needs the joined row, so there
// the scratch is filled. Both give the same rows.
func TestNaiveNLJNTestsPairInPlace(t *testing.T) {
	cat := pairFixture(t, ints(5, 5, 6), ints(5, 5, 5, 6))
	run := func(arith bool) ([]string, schema.Row) {
		b := logical.NewBuilder(cat)
		b.AddTable("lt", "l")
		b.AddTable("rt", "r")
		b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("l", "lk"), R: b.Col("r", "rk")})
		var lv expr.Expr = b.Col("l", "lv")
		if arith {
			lv = &expr.Arith{Op: expr.Add, L: lv, R: &expr.Const{Val: types.NewInt(0)}}
		}
		b.Where(&expr.Cmp{Op: expr.LT, L: lv, R: b.Col("r", "rv")})
		b.SelectCol("r", "rv")
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		opt := optimizer.New(cat)
		joinConfigs["naive"](opt)
		plan, err := opt.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		ex, _ := NewExecutor(cat, q, nil, opt.Model.Params, &Meter{})
		root, err := ex.Build(plan)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Run(root)
		if err != nil {
			t.Fatal(err)
		}
		pair, ok := naiveJoinPair(root)
		if !ok {
			t.Fatalf("no naive NLJN in plan:\n%s", optimizer.Explain(plan, q))
		}
		var out []string
		for _, r := range rows {
			out = append(out, r.String())
		}
		return out, pair
	}
	got, pair := run(false)
	if pair != nil {
		t.Errorf("resolved filter filled the pair scratch: %v", pair)
	}
	want, pair := run(true)
	if pair == nil {
		t.Error("an arithmetic conjunct must evaluate on the joined row, but the pair scratch is nil")
	}
	if len(want) != 7 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("rows %v, want the 7 of %v", got, want)
	}
}

// TestNaiveNLJNRejectsUnrewindableInner: a naive NLJN rescans its inner once
// per outer row, so Build refuses an inner that cannot rewind — here a TEMP
// in place of the base access the optimizer always puts there. Without the
// guard the plan would build and its second outer row would panic in
// fillNaive.
func TestNaiveNLJNRejectsUnrewindableInner(t *testing.T) {
	cat := pairFixture(t, ints(5, 5, 6), ints(5, 5, 5, 6))
	b := logical.NewBuilder(cat)
	b.AddTable("lt", "l")
	b.AddTable("rt", "r")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("l", "lk"), R: b.Col("r", "rk")})
	b.SelectCol("l", "lv")
	b.SelectCol("r", "rv")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat)
	joinConfigs["naive"](opt)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	var join *optimizer.Plan
	plan.Walk(func(p *optimizer.Plan) {
		if p.Op == optimizer.OpNLJN && !p.IndexJoin {
			join = p
		}
	})
	if join == nil {
		t.Fatalf("no naive NLJN in plan:\n%s", optimizer.Explain(plan, q))
	}
	join.Children[1] = optimizer.WrapTemp(join.Children[1])
	ex, err := NewExecutor(cat, q, nil, opt.Model.Params, &Meter{})
	if err != nil {
		t.Fatal(err)
	}
	root, err := ex.Build(plan)
	if err == nil {
		_, err = Run(root)
		t.Fatalf("Build accepted a TEMP inner under a naive NLJN (run: %v)", err)
	}
	if want := "executor: naive NLJN inner TEMP is not rewindable"; err.Error() != want {
		t.Errorf("Build error = %q, want %q", err, want)
	}
}
