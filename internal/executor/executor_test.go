package executor

import (
	"errors"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/types"
)

// fixture builds a small three-table star: emp → dept → loc, with indexes
// and statistics.
func fixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	locs, err := c.CreateTable("loc", schema.New(
		schema.Column{Name: "l_id", Type: types.KindInt},
		schema.Column{Name: "l_city", Type: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	cities := []string{"paris", "tokyo", "lima", "oslo", "cairo"}
	for i, city := range cities {
		locs.Heap.MustInsert(schema.Row{types.NewInt(int64(i)), types.NewString(city)})
	}
	depts, err := c.CreateTable("dept", schema.New(
		schema.Column{Name: "d_id", Type: types.KindInt},
		schema.Column{Name: "d_name", Type: types.KindString},
		schema.Column{Name: "d_loc", Type: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		depts.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			types.NewString([]string{"eng", "sales", "hr", "ops"}[i%4]),
			types.NewInt(int64(i % 5)),
		})
	}
	emps, err := c.CreateTable("emp", schema.New(
		schema.Column{Name: "e_id", Type: types.KindInt},
		schema.Column{Name: "e_dept", Type: types.KindInt},
		schema.Column{Name: "e_salary", Type: types.KindFloat},
		schema.Column{Name: "e_name", Type: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		emps.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 20)),
			types.NewFloat(float64(1000 + (i*37)%5000)),
			types.NewString("emp" + string(rune('a'+i%26))),
		})
	}
	for _, ix := range [][3]string{
		{"dept_pk", "dept", "d_id"},
		{"emp_dept", "emp", "e_dept"},
		{"loc_pk", "loc", "l_id"},
	} {
		if _, err := c.CreateBTreeIndex(ix[0], ix[1], ix[2]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return c
}

// runPlan compiles a query with the given optimizer, executes it, and
// returns the result rows.
func runPlan(t *testing.T, opt *optimizer.Optimizer, q *logical.Query, params []types.Datum) []schema.Row {
	t.Helper()
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	ex, err := NewExecutor(opt.Cat, q, params, opt.Model.Params, &Meter{})
	if err != nil {
		t.Fatal(err)
	}
	root, err := ex.Build(plan)
	if err != nil {
		t.Fatalf("build %v:\n%s", err, optimizer.Explain(plan, q))
	}
	rows, err := Run(root)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, optimizer.Explain(plan, q))
	}
	return rows
}

// canon renders rows as sorted strings for multiset comparison.
func canon(rows []schema.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, got, want []schema.Row, label string) {
	t.Helper()
	g, w := canon(got), canon(want)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d rows, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d: got %s, want %s", label, i, g[i], w[i])
		}
	}
}

func TestScanWithFilter(t *testing.T) {
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("e", "e_id"), R: &expr.Const{Val: types.NewInt(10)}})
	b.SelectCol("e", "e_id")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rows := runPlan(t, optimizer.New(cat), q, nil)
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
}

// reference computes emp⋈dept⋈loc with a filter on e_id by brute force.
func reference(t *testing.T, cat *catalog.Catalog, maxEID int64) []schema.Row {
	t.Helper()
	emp, _ := cat.Table("emp")
	dept, _ := cat.Table("dept")
	loc, _ := cat.Table("loc")
	var out []schema.Row
	eit := emp.Heap.Scan()
	for {
		e, _, ok := eit.Next()
		if !ok {
			break
		}
		if e[0].Int() >= maxEID {
			continue
		}
		dit := dept.Heap.Scan()
		for {
			d, _, ok := dit.Next()
			if !ok {
				break
			}
			if d[0].Int() != e[1].Int() {
				continue
			}
			lit := loc.Heap.Scan()
			for {
				l, _, ok := lit.Next()
				if !ok {
					break
				}
				if l[0].Int() != d[2].Int() {
					continue
				}
				out = append(out, schema.Row{e[0], d[1], l[1]})
			}
		}
	}
	return out
}

func threeWayQuery(t *testing.T, cat *catalog.Catalog, maxEID int64) *logical.Query {
	t.Helper()
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.AddTable("dept", "d")
	b.AddTable("loc", "l")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("e", "e_dept"), R: b.Col("d", "d_id")})
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("d", "d_loc"), R: b.Col("l", "l_id")})
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("e", "e_id"), R: &expr.Const{Val: types.NewInt(maxEID)}})
	b.SelectCol("e", "e_id")
	b.SelectCol("d", "d_name")
	b.SelectCol("l", "l_city")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestJoinMethodsAgree runs the same 3-way join with each join method forced
// and checks every one returns the brute-force reference result.
func TestJoinMethodsAgree(t *testing.T) {
	cat := fixture(t)
	want := reference(t, cat, 50)
	if len(want) == 0 {
		t.Fatal("reference result empty; fixture broken")
	}
	configs := map[string]func(*optimizer.Optimizer){
		"default":   func(o *optimizer.Optimizer) {},
		"onlyHSJN":  func(o *optimizer.Optimizer) { o.DisableNLJN = true; o.DisableMGJN = true },
		"onlyMGJN":  func(o *optimizer.Optimizer) { o.DisableNLJN = true; o.DisableHSJN = true },
		"onlyNLJN":  func(o *optimizer.Optimizer) { o.DisableHSJN = true; o.DisableMGJN = true },
		"naiveNLJN": func(o *optimizer.Optimizer) { o.DisableHSJN = true; o.DisableMGJN = true; o.DisableIndexJoin = true },
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			opt := optimizer.New(cat)
			cfg(opt)
			q := threeWayQuery(t, cat, 50)
			got := runPlan(t, opt, q, nil)
			sameRows(t, got, want, name)
		})
	}
}

func TestPlanShapesDiffer(t *testing.T) {
	cat := fixture(t)
	q := threeWayQuery(t, cat, 50)

	onlyHash := optimizer.New(cat)
	onlyHash.DisableNLJN = true
	onlyHash.DisableMGJN = true
	p1, err := onlyHash.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Count(optimizer.OpHSJN) != 2 {
		t.Errorf("expected 2 hash joins:\n%s", optimizer.Explain(p1, q))
	}
	onlyMerge := optimizer.New(cat)
	onlyMerge.DisableNLJN = true
	onlyMerge.DisableHSJN = true
	p2, err := onlyMerge.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Count(optimizer.OpMGJN) != 2 {
		t.Errorf("expected 2 merge joins:\n%s", optimizer.Explain(p2, q))
	}
}

func TestAggregationAndOrdering(t *testing.T) {
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.AddTable("dept", "d")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("e", "e_dept"), R: b.Col("d", "d_id")})
	b.SelectCol("d", "d_name")
	b.SelectAgg(logical.AggCount, nil, "n")
	b.SelectAgg(logical.AggSum, b.Col("e", "e_salary"), "total")
	b.SelectAgg(logical.AggMin, b.Col("e", "e_salary"), "lo")
	b.SelectAgg(logical.AggMax, b.Col("e", "e_salary"), "hi")
	b.SelectAgg(logical.AggAvg, b.Col("e", "e_salary"), "avg")
	b.GroupBy(b.Col("d", "d_name"))
	b.OrderBy(b.Col("d", "d_name"), false)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rows := runPlan(t, optimizer.New(cat), q, nil)
	if len(rows) != 4 {
		t.Fatalf("got %d groups, want 4", len(rows))
	}
	// Ordered ascending by name.
	names := []string{}
	var totalCount int64
	for _, r := range rows {
		names = append(names, r[0].Str())
		totalCount += r[1].Int()
		// AVG consistency.
		if math.Abs(r[5].Float()-r[2].Float()/float64(r[1].Int())) > 1e-6 {
			t.Errorf("avg inconsistent for %s", r[0])
		}
		if r[3].Float() > r[5].Float() || r[5].Float() > r[4].Float() {
			t.Errorf("min <= avg <= max violated for %s", r[0])
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("groups not ordered: %v", names)
	}
	if totalCount != 500 {
		t.Errorf("counts sum to %d, want 500", totalCount)
	}
}

func TestOrderByDescAndLimit(t *testing.T) {
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.SelectCol("e", "e_id")
	b.OrderBy(b.Col("e", "e_id"), true)
	b.Limit(5)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rows := runPlan(t, optimizer.New(cat), q, nil)
	if len(rows) != 5 {
		t.Fatalf("limit: got %d rows", len(rows))
	}
	for i, r := range rows {
		if r[0].Int() != int64(499-i) {
			t.Errorf("row %d = %v, want %d", i, r[0], 499-i)
		}
	}
}

func TestParameterMarkerExecution(t *testing.T) {
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("e", "e_id"), R: b.Param(0)})
	b.SelectCol("e", "e_id")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rows := runPlan(t, optimizer.New(cat), q, []types.Datum{types.NewInt(25)})
	if len(rows) != 25 {
		t.Fatalf("got %d rows, want 25", len(rows))
	}
	// Unbound param should error at runtime.
	opt := optimizer.New(cat)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := NewExecutor(cat, q, nil, opt.Model.Params, &Meter{})
	root, err := ex.Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(root); err == nil {
		t.Error("unbound parameter should error")
	}
}

func TestMeterAccumulates(t *testing.T) {
	cat := fixture(t)
	q := threeWayQuery(t, cat, 100)
	opt := optimizer.New(cat)
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
	if meter.Work() <= 0 {
		t.Error("meter should accumulate work")
	}
}

// wrapCheck inserts a CHECK above the given plan node.
func wrapCheck(p *optimizer.Plan, r optimizer.Range, flavor optimizer.CheckFlavor) *optimizer.Plan {
	return &optimizer.Plan{
		Op:       optimizer.OpCheck,
		Children: []*optimizer.Plan{p},
		Check:    &optimizer.CheckMeta{ID: 1, Flavor: flavor, Range: r, EstCard: p.Card},
		Cols:     p.Cols,
		Card:     p.Card,
	}
}

func TestCheckUpperViolation(t *testing.T) {
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.SelectCol("e", "e_id")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	// Insert CHECK below the projection with an upper bound of 100: the scan
	// produces 500 rows, so the check must fire with a lower-bound count.
	plan.Children[0] = wrapCheck(plan.Children[0], optimizer.Range{Lo: 0, Hi: 100}, optimizer.ECDC)
	ex, _ := NewExecutor(cat, q, nil, opt.Model.Params, &Meter{})
	root, err := ex.Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(root)
	cv, ok := err.(*CheckViolation)
	if !ok {
		t.Fatalf("want CheckViolation, got %v", err)
	}
	if cv.Exact {
		t.Error("streaming upper violation should be a lower bound, not exact")
	}
	if cv.Actual != 101 {
		t.Errorf("violation at count %v, want 101", cv.Actual)
	}
	if !strings.Contains(cv.Error(), "CHECK #1") {
		t.Errorf("error text: %s", cv.Error())
	}
}

func TestCheckLowerViolationAtEOF(t *testing.T) {
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.SelectCol("e", "e_id")
	q, _ := b.Build()
	opt := optimizer.New(cat)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	plan.Children[0] = wrapCheck(plan.Children[0], optimizer.Range{Lo: 1000, Hi: math.Inf(1)}, optimizer.ECDC)
	ex, _ := NewExecutor(cat, q, nil, opt.Model.Params, &Meter{})
	root, _ := ex.Build(plan)
	_, err = Run(root)
	cv, ok := err.(*CheckViolation)
	if !ok {
		t.Fatalf("want CheckViolation, got %v", err)
	}
	if !cv.Exact || cv.Actual != 500 {
		t.Errorf("EOF violation: exact=%v actual=%v", cv.Exact, cv.Actual)
	}
}

func TestCheckPassesInRange(t *testing.T) {
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.SelectCol("e", "e_id")
	q, _ := b.Build()
	opt := optimizer.New(cat)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	plan.Children[0] = wrapCheck(plan.Children[0], optimizer.Range{Lo: 100, Hi: 1000}, optimizer.LC)
	ex, _ := NewExecutor(cat, q, nil, opt.Model.Params, &Meter{})
	root, _ := ex.Build(plan)
	rows, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 500 {
		t.Errorf("got %d rows", len(rows))
	}
}

func TestCheckAboveMaterializationValidatesOnce(t *testing.T) {
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.SelectCol("e", "e_id")
	b.OrderBy(b.Col("e", "e_id"), false)
	q, _ := b.Build()
	opt := optimizer.New(cat)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Op != optimizer.OpSort {
		t.Fatalf("expected SORT on top, got %s", plan.Op)
	}
	// CHECK above the SORT materialization with a violated upper bound must
	// fire exactly at Open with the exact cardinality.
	check := wrapCheck(plan, optimizer.Range{Lo: 0, Hi: 10}, optimizer.LC)
	ex, _ := NewExecutor(cat, q, nil, opt.Model.Params, &Meter{})
	root, err := ex.Build(check)
	if err != nil {
		t.Fatal(err)
	}
	err = root.Open()
	cv, ok := err.(*CheckViolation)
	if !ok {
		t.Fatalf("want CheckViolation at Open, got %v", err)
	}
	if !cv.Exact || cv.Actual != 500 {
		t.Errorf("materialized check: exact=%v actual=%v", cv.Exact, cv.Actual)
	}
	root.Close()
}

func TestReturnedSetAndCompensation(t *testing.T) {
	s := NewReturnedSet()
	r1 := schema.Row{types.NewInt(1), types.NewString("a")}
	r2 := schema.Row{types.NewInt(2), types.NewString("b")}
	s.Add(r1)
	s.Add(r1) // duplicate result row returned twice
	s.Add(r2)
	if s.Len() != 3 {
		t.Errorf("len = %d", s.Len())
	}
	if !s.Remove(r1) || !s.Remove(r1) {
		t.Error("both duplicate occurrences should be removable")
	}
	if s.Remove(r1) {
		t.Error("third removal should fail (multiset)")
	}
	if !s.Remove(r2) {
		t.Error("r2 should be removable")
	}
	if s.Len() != 0 {
		t.Errorf("len after removals = %d", s.Len())
	}
}

func TestECDCAntiJoinEndToEnd(t *testing.T) {
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("e", "e_id"), R: &expr.Const{Val: types.NewInt(20)}})
	b.SelectCol("e", "e_id")
	q, _ := b.Build()
	opt := optimizer.New(cat)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	// Initial run: return the first 8 rows through an INSERT wrapper.
	side := NewReturnedSet()
	ex, _ := NewExecutor(cat, q, nil, opt.Model.Params, &Meter{})
	root, err := ex.Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := NewInsertRid(ex, root, side)
	if err := wrapped.Open(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i += 4 {
		if b, err := wrapped.NextBatch(4); err != nil || b.Len() != 4 {
			t.Fatalf("initial run rows %d..%d: batch %v, err %v", i, i+3, b, err)
		}
	}
	wrapped.Close()
	if side.Len() != 8 {
		t.Fatalf("side table has %d rows", side.Len())
	}
	// Re-optimized run compensates via anti-join: total rows = 20 - 8.
	ex2, _ := NewExecutor(cat, q, nil, opt.Model.Params, &Meter{})
	root2, err := ex2.Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	comp := NewAntiJoin(ex2, root2, side)
	rows, err := Run(comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Errorf("compensated run returned %d rows, want 12", len(rows))
	}
}

// TestAbandonedAntiJoinLeavesSideTable runs a compensated attempt whose own
// CHECK fires after its anti-join has suppressed every returned row: the side
// table must be left as the anti-join found it, so the attempt after it still
// compensates those rows.
func TestAbandonedAntiJoinLeavesSideTable(t *testing.T) {
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("e", "e_id"), R: &expr.Const{Val: types.NewInt(20)}})
	b.SelectCol("e", "e_id")
	q, _ := b.Build()
	opt := optimizer.New(cat)
	full, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	want := runPlan(t, opt, q, nil)
	side := NewReturnedSet()
	for _, row := range want[:8] {
		side.Add(row)
	}
	build := func(plan *optimizer.Plan) Node {
		ex, err := NewExecutor(cat, q, nil, opt.Model.Params, &Meter{})
		if err != nil {
			t.Fatal(err)
		}
		root, err := ex.Build(plan)
		if err != nil {
			t.Fatal(err)
		}
		return NewAntiJoin(ex, root, side)
	}

	// The CHECK lets 12 rows through: the anti-join has consumed all 8
	// entries by then, and returned the 4 rows after them.
	checked := optimizer.CloneNode(full)
	checked.Children[0] = wrapCheck(full.Children[0], optimizer.Range{Lo: 0, Hi: 12}, optimizer.ECDC)
	rows, err := Run(build(checked))
	var cv *CheckViolation
	if !errors.As(err, &cv) || len(rows) != 4 {
		t.Fatalf("guarded attempt: %d rows, err %v; want 4 rows and a violation", len(rows), err)
	}
	if side.Len() != 8 {
		t.Fatalf("the abandoned anti-join left %d rows in the side table, want 8", side.Len())
	}
	probe := side.Clone()
	for _, row := range want[:8] {
		if !probe.Remove(row) {
			t.Fatalf("returned row %v is gone from the side table", row)
		}
	}

	rest, err := Run(build(full))
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 12 {
		t.Errorf("next attempt returned %d rows, want 12", len(rest))
	}
}

func TestWalkAndStats(t *testing.T) {
	cat := fixture(t)
	q := threeWayQuery(t, cat, 50)
	opt := optimizer.New(cat)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := NewExecutor(cat, q, nil, opt.Model.Params, &Meter{})
	root, err := ex.Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(root); err != nil {
		t.Fatal(err)
	}
	nodes := 0
	Walk(root, func(n Node) {
		nodes++
		if n.Stats().Opened == false && n.Plan().Op != optimizer.OpIndexScan {
			t.Errorf("node %s never opened", n.Plan().Op)
		}
	})
	if nodes < 4 {
		t.Errorf("walked only %d nodes", nodes)
	}
	if root.Stats().RowsOut == 0 {
		t.Error("root produced no rows")
	}
}

func TestMVScanExecution(t *testing.T) {
	cat := fixture(t)
	// Offer an MV matching "emp with e_id < 10" and verify execution
	// through an MVSCAN plan returns its rows.
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("e", "e_id"), R: &expr.Const{Val: types.NewInt(10)}})
	b.SelectCol("e", "e_id")
	q, _ := b.Build()

	sig := optimizer.Signature(q, 1)
	mvRows := make([]schema.Row, 10)
	for i := range mvRows {
		mvRows[i] = schema.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 20)), types.NewFloat(0), types.NewString("x")}
	}
	opt := optimizer.New(cat)
	opt.Views = map[string]*optimizer.MatView{sig: {
		Signature: sig,
		Cols:      []int{0, 1, 2, 3},
		Rows:      mvRows,
		Card:      10,
	}}
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Count(optimizer.OpMVScan) != 1 {
		t.Fatalf("expected MVSCAN in plan:\n%s", optimizer.Explain(plan, q))
	}
	rows := runPlan(t, opt, q, nil)
	if len(rows) != 10 {
		t.Errorf("MV execution returned %d rows", len(rows))
	}
}
