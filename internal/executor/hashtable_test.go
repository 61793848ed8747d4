package executor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/types"
)

// hashDrops are the key-hash modes the table tests run under: real hashes,
// every key on one hash, and every key on one of two hashes.
var hashDrops = []uint64{0, ^uint64(0), ^uint64(1)}

// keyedRows turns keys into rows {key, position}; key 0 stands for NULL.
func keyedRows(keys []byte) []schema.Row {
	rows := make([]schema.Row, len(keys))
	for i, k := range keys {
		key := types.Null
		if k != 0 {
			key = types.NewInt(int64(k))
		}
		rows[i] = schema.Row{key, types.NewInt(int64(i))}
	}
	return rows
}

// checkTablesAgainstMaps drives the join table and the aggregation's grouping
// over keys (0 is NULL) with the given key-hash bits dropped, and compares
// them with a map[uint64][]schema.Row and a map[key]*group reference.
func checkTablesAgainstMaps(t testing.TB, keys []byte, drop uint64, card float64) {
	t.Helper()
	e := &Executor{hashDrop: drop}
	rows := keyedRows(keys)
	key := []int{0}

	// Join: each hash's bucket holds its rows in build-input order, and NULL
	// keys are left out.
	ref := map[uint64][]schema.Row{}
	keyed := 0
	for _, r := range rows {
		if h, ok := e.keyHash(r, key, false); ok {
			ref[h] = append(ref[h], r)
			keyed++
		}
	}
	var jt joinTable
	jt.build(e, key, rows)
	if len(jt.rows) != keyed || len(jt.hashes) != len(ref) {
		t.Fatalf("join table holds %d rows under %d hashes, want %d under %d", len(jt.rows), len(jt.hashes), keyed, len(ref))
	}
	for h, want := range ref {
		got := jt.bucket(h)
		if len(got) != len(want) {
			t.Fatalf("hash %x: bucket of %d rows, want %d", h, len(got), len(want))
		}
		for i := range want {
			if got[i][1].Int() != want[i][1].Int() {
				t.Fatalf("hash %x: bucket row %d is input row %v, want %v", h, i, got[i][1], want[i][1])
			}
		}
	}
	if _, ok := ref[0x5eed]; !ok && jt.bucket(0x5eed) != nil {
		t.Fatalf("absent hash found a bucket")
	}

	// Grouping: one group per distinct key, NULL included, numbered in
	// first-encounter order, with every row counted into its own group.
	type group struct {
		key   types.Datum
		id, n int
	}
	groups := map[mapKey]*group{}
	n := &hashAggNode{base: base{plan: &optimizer.Plan{Card: card}}, ex: e, keys: key,
		items: []logical.SelectItem{{Agg: logical.AggCount}}, itemExpr: []expr.Expr{nil}}
	n.table.reset(0)
	for _, r := range rows {
		g := groups[keyOf(r[0])]
		if g == nil {
			g = &group{key: r[0], id: len(groups)}
			groups[keyOf(r[0])] = g
		}
		g.n++
		if err := n.absorb(r); err != nil {
			t.Fatal(err)
		}
	}
	if len(n.table.hashes) != len(groups) {
		t.Fatalf("%d groups, want %d", len(n.table.hashes), len(groups))
	}
	for _, g := range groups {
		if !n.gkeys[g.id].Equal(g.key) {
			t.Fatalf("group %d has key %v, want %v (first-encounter order)", g.id, n.gkeys[g.id], g.key)
		}
		if got := n.states[g.id].count; got != float64(g.n) {
			t.Fatalf("group %v counted %v rows, want %d", g.key, got, g.n)
		}
	}
}

// mapKey is a comparable stand-in for a datum as a reference map's key:
// Datum itself is not comparable. Two datums have equal keys exactly when
// Equal holds between them.
type mapKey struct {
	kind types.Kind
	i    uint64 // an int, bool or date; a float's bits, −0 as +0 and one NaN
	s    string
}

func keyOf(d types.Datum) mapKey {
	k := mapKey{kind: d.Kind()}
	switch k.kind {
	case types.KindNull:
	case types.KindString:
		k.s = d.Str()
	case types.KindFloat:
		switch f := d.Float(); {
		case math.IsNaN(f):
			k.i = math.Float64bits(math.NaN())
		case f != 0:
			k.i = math.Float64bits(f)
		}
	default:
		k.i = uint64(d.Int())
	}
	return k
}

// foldAs is the datum keyHash folds in d's place: for a join, a numeric key
// as a float of its value; for both, a float's −0 as +0.
func foldAs(d types.Datum, grouping bool) types.Datum {
	if d.Kind() == types.KindFloat || !grouping && d.Kind().Numeric() {
		if f := d.Float(); f != 0 {
			return types.NewFloat(f)
		}
		return types.NewFloat(0)
	}
	return d
}

// TestKeyHashMatchesFoldChain pins keyHash, which folds key columns in
// place, to the HashFold chain from HashSeed over foldAs with the dropped
// bits cleared: one and two key columns, every kind, NULL keys skipped by a
// join and folded by grouping.
func TestKeyHashMatchesFoldChain(t *testing.T) {
	datums := []types.Datum{types.Null, types.NewBool(true), types.NewInt(-7), types.NewFloat(2.5),
		types.NewString("key"), types.NewDate(12000), types.NewFloat(math.Copysign(0, -1))}
	for _, drop := range hashDrops {
		e := &Executor{hashDrop: drop}
		for _, a := range datums {
			for _, b := range datums {
				row := schema.Row{a, types.NewInt(0), b}
				for _, keys := range [][]int{{0}, {2}, {2, 0}} {
					for _, grouping := range []bool{false, true} {
						want, null := types.HashSeed, false
						for _, k := range keys {
							want, null = foldAs(row[k], grouping).HashFold(want), null || row[k].IsNull()
						}
						want &^= drop
						h, ok := e.keyHash(row, keys, grouping)
						if wantOK := grouping || !null; ok != wantOK || (ok && h != want) {
							t.Errorf("drop %x keys %v of %v grouping=%v: (%x, %v), want (%x, %v)",
								drop, keys, row, grouping, h, ok, want, wantOK)
						}
					}
				}
			}
		}
	}
}

// TestKeyHashAgreesWithEquality: keys a join's Compare calls equal hash
// alike as join keys — int, float and date of one value, −0 and +0 — and
// keys grouping's Equal calls equal hash alike as grouping keys.
func TestKeyHashAgreesWithEquality(t *testing.T) {
	negZero := types.NewFloat(math.Copysign(0, -1))
	datums := []types.Datum{types.NewBool(false), types.NewBool(true), types.NewString(""), types.NewString("5"),
		negZero, types.NewFloat(0), types.NewInt(0), types.NewDate(0),
		types.NewFloat(5), types.NewInt(5), types.NewDate(5), types.NewFloat(5.5), types.NewInt(-5),
		types.NewFloat(-5), types.NewInt(1 << 53), types.NewInt(1<<53 + 1), types.NewFloat(1 << 53)}
	e := &Executor{}
	hash := func(d types.Datum, grouping bool) uint64 {
		h, _ := e.keyHash(schema.Row{d}, []int{0}, grouping)
		return h
	}
	for _, a := range datums {
		for _, b := range datums {
			if c, err := a.Compare(b); err == nil && c == 0 && hash(a, false) != hash(b, false) {
				t.Errorf("join keys %v (%s) and %v (%s) compare equal but hash apart", a, a.Kind(), b, b.Kind())
			}
			if a.Equal(b) && hash(a, true) != hash(b, true) {
				t.Errorf("grouping keys %v (%s) and %v (%s) are equal but hash apart", a, a.Kind(), b, b.Kind())
			}
		}
	}
	if hash(types.NewInt(5), true) == hash(types.NewFloat(5), true) {
		t.Error("grouping hashes int 5 and float 5.0 alike; Equal tells them apart")
	}
}

// TestHashTableDifferential runs random key sequences — few distinct keys,
// many, NULLs, and group estimates far off either way — against the maps.
func TestHashTableDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 200; iter++ {
		keys := make([]byte, rng.Intn(600))
		domain := 1 + rng.Intn(255)
		for i := range keys {
			keys[i] = byte(rng.Intn(domain + 1))
		}
		for _, drop := range hashDrops {
			checkTablesAgainstMaps(t, keys, drop, float64(rng.Intn(3*domain)))
		}
	}
	checkTablesAgainstMaps(t, nil, 0, 0) // an empty build and no groups
}

// FuzzHashTable checks both tables against the maps on fuzzed keys and
// fuzzed dropped hash bits; dropping all of them forces every key to collide.
func FuzzHashTable(f *testing.F) {
	f.Add([]byte{3, 1, 0, 3, 2, 1, 0, 3}, uint64(0), 4.0)
	f.Add([]byte{7, 7, 9, 0, 0, 9, 250}, ^uint64(0), 1.0)
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), ^uint64(1), 1e9)
	f.Fuzz(func(t *testing.T, keys []byte, drop uint64, card float64) {
		checkTablesAgainstMaps(t, keys, drop, card)
	})
}

// joinQuery builds emp ⋈ dept on e_dept = d_id, selecting plain columns so
// result rows are comparable across execution orders.
func joinQuery(t *testing.T, cat *catalog.Catalog) *logical.Query {
	t.Helper()
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.AddTable("dept", "d")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("e", "e_dept"), R: b.Col("d", "d_id")})
	b.SelectCol("e", "e_id")
	b.SelectCol("d", "d_name")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// hashOptimizer returns an optimizer that forces a hash join.
func hashOptimizer(cat *catalog.Catalog) *optimizer.Optimizer {
	opt := optimizer.New(cat)
	joinConfigs["hash"](opt)
	return opt
}

// planContains reports whether any node of the plan satisfies pred.
func planContains(p *optimizer.Plan, pred func(*optimizer.Plan) bool) bool {
	if pred(p) {
		return true
	}
	for _, c := range p.Children {
		if planContains(c, pred) {
			return true
		}
	}
	return false
}

// execHashed builds and drains a plan with the given key-hash bits dropped.
func execHashed(t *testing.T, cat *catalog.Catalog, q *logical.Query, plan *optimizer.Plan,
	params optimizer.CostParams, drop uint64) ([]schema.Row, float64) {
	t.Helper()
	meter := &Meter{}
	ex, err := NewExecutor(cat, q, nil, params, meter)
	if err != nil {
		t.Fatal(err)
	}
	ex.hashDrop = drop
	root, err := ex.Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Run(root)
	if err != nil {
		t.Fatalf("%v\n%s", err, optimizer.Explain(plan, q))
	}
	return rows, meter.Work()
}

// TestHashOperatorsUnderCollisions runs the hash join and hash aggregation
// with every key on one hash and on two: joins still key-check every
// candidate and groups stay distinct, so the rows and the work equal the
// real-hash run.
func TestHashOperatorsUnderCollisions(t *testing.T) {
	cat := fixture(t)
	join := joinQuery(t, cat)
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.AddTable("dept", "d")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("e", "e_dept"), R: b.Col("d", "d_id")})
	b.SelectCol("d", "d_name")
	b.SelectCol("e", "e_dept")
	b.SelectAgg(logical.AggCount, nil, "n")
	b.SelectAgg(logical.AggSum, b.Col("e", "e_salary"), "total")
	b.SelectAgg(logical.AggMin, b.Col("e", "e_name"), "lo")
	b.SelectAgg(logical.AggMax, b.Col("e", "e_salary"), "hi")
	b.GroupBy(b.Col("d", "d_name"))
	b.GroupBy(b.Col("e", "e_dept"))
	agg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*logical.Query{join, agg} {
		opt := hashOptimizer(cat)
		plan, err := opt.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		want, wantWork := execHashed(t, cat, q, plan, opt.Model.Params, 0)
		for _, drop := range hashDrops {
			rows, work := execHashed(t, cat, q, plan, opt.Model.Params, drop)
			sameRows(t, rows, want, "collisions")
			if work != wantWork {
				t.Errorf("drop=%x: work %v, want %v", drop, work, wantWork)
			}
		}
	}
}

// TestHashJoinBuildKeepsNullKeys: a NULL build key joins nothing, so the
// table leaves the row out, but the build edge still counts every row (the
// staging charge reads that count). The table is read before Close, which
// returns it to the pool.
func TestHashJoinBuildKeepsNullKeys(t *testing.T) {
	build := []types.Datum{types.Null, types.NewInt(1), types.NewInt(2), types.Null, types.NewInt(1)}
	probe := ints(1, 2, 3)
	for k := int64(100); k < 160; k++ {
		probe = append(probe, types.NewInt(k))
	}
	cat := pairFixture(t, probe, build)
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
	opt := hashOptimizer(cat)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	requireBuildOn(t, plan, q, "rt")
	ex, err := NewExecutor(cat, q, nil, opt.Model.Params, &Meter{})
	if err != nil {
		t.Fatal(err)
	}
	root, err := ex.Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	var join *hsjnNode
	Walk(root, func(n Node) {
		if j, ok := n.(*hsjnNode); ok {
			join = j
		}
	})
	if join == nil {
		t.Fatalf("no hash join in plan:\n%s", optimizer.Explain(plan, q))
	}
	if err := root.Open(); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for {
		b, err := root.NextBatch(0)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		rows += b.Len()
	}
	if inTable := len(join.mem.table.rows); inTable != 3 {
		t.Errorf("the table holds %d rows, want the 3 keyed ones", inTable)
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	if rows != 3 {
		t.Errorf("%d rows, want 3", rows)
	}
	if st := join.Children()[1].Stats(); !st.Done || st.RowsOut != float64(len(build)) {
		t.Errorf("build edge counted %v rows (done %v), want all %d", st.RowsOut, st.Done, len(build))
	}
	if join.mem != nil {
		t.Error("Close kept the build memory")
	}
}

// requireBuildOn fails the test unless plan's hash join builds on a scan of
// table.
func requireBuildOn(t *testing.T, plan *optimizer.Plan, q *logical.Query, table string) {
	t.Helper()
	if !planContains(plan, func(p *optimizer.Plan) bool {
		if p.Op != optimizer.OpHSJN {
			return false
		}
		for p = p.Children[1]; len(p.Children) == 1; p = p.Children[0] {
		}
		return p.Op == optimizer.OpTableScan && q.Tables[p.Table].Table == table
	}) {
		t.Fatalf("want a hash join building on %s:\n%s", table, optimizer.Explain(plan, q))
	}
}

// TestHashOperatorOrders pins the two orders the goldens see. A hash join
// emits a probe row's matches in build-input order, and an aggregation emits
// its groups in first-encounter order, whatever the hashes are.
func TestHashOperatorOrders(t *testing.T) {
	// Build keys 5,3,5,9,3,5 (rv 100..105), probed by keys 9,5,3 and 60
	// keys that match nothing, so rt is the smaller side.
	probe := ints(9, 5, 3)
	for k := int64(100); k < 160; k++ {
		probe = append(probe, types.NewInt(k))
	}
	cat := pairFixture(t, probe, ints(5, 3, 5, 9, 3, 5))
	b := logical.NewBuilder(cat)
	b.AddTable("lt", "l")
	b.AddTable("rt", "r")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("l", "lk"), R: b.Col("r", "rk")})
	b.SelectCol("l", "lv")
	b.SelectCol("r", "rv")
	join, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := hashOptimizer(cat)
	plan, err := opt.Optimize(join)
	if err != nil {
		t.Fatal(err)
	}
	requireBuildOn(t, plan, join, "rt")
	for _, drop := range hashDrops {
		rows, _ := execHashed(t, cat, join, plan, opt.Model.Params, drop)
		prev := map[int64]int64{}
		for _, r := range rows {
			if lv, rv := r[0].Int(), r[1].Int(); rv < prev[lv] {
				t.Fatalf("drop=%x: probe row %d matched rv %d after %d", drop, lv, rv, prev[lv])
			}
			prev[r[0].Int()] = r[1].Int()
		}
		if len(rows) != 6 {
			t.Fatalf("drop=%x: %d joined rows, want 6", drop, len(rows))
		}
	}

	b = logical.NewBuilder(cat)
	b.AddTable("rt", "r")
	b.SelectCol("r", "rk")
	b.SelectAgg(logical.AggCount, nil, "n")
	b.GroupBy(b.Col("r", "rk"))
	agg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	aplan, err := opt.Optimize(agg)
	if err != nil {
		t.Fatal(err)
	}
	for _, drop := range hashDrops {
		rows, _ := execHashed(t, cat, agg, aplan, opt.Model.Params, drop)
		got := ""
		for _, r := range rows {
			got += r.String()
		}
		if want := "[5, 3][3, 2][9, 1]"; got != want {
			t.Errorf("drop=%x: groups %s, want %s in first-encounter order", drop, got, want)
		}
	}
}

// TestHashAggregationAgainstReference groups random rows — small and large
// key domains, NULL keys and values — under every hash mode and compares
// rows and their order with a map[key]*group reference.
func TestHashAggregationAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, domain := range []int{1, 5, 300} {
		c := catalog.New()
		tab, err := c.CreateTable("g", schema.New(
			schema.Column{Name: "k", Type: types.KindInt, Nullable: true},
			schema.Column{Name: "v", Type: types.KindInt, Nullable: true},
		))
		if err != nil {
			t.Fatal(err)
		}
		type group struct {
			key          types.Datum
			n, nv        int64
			sum          float64
			lo, hi       types.Datum
			first, count int
		}
		groups := map[mapKey]*group{}
		var order []*group
		for i := 0; i < 700; i++ {
			k, v := types.Null, types.Null
			if rng.Intn(10) > 0 {
				k = types.NewInt(int64(rng.Intn(domain)))
			}
			if rng.Intn(8) > 0 {
				v = types.NewInt(int64(rng.Intn(1000) - 500))
			}
			tab.Heap.MustInsert(schema.Row{k, v})
			g := groups[keyOf(k)]
			if g == nil {
				g = &group{key: k}
				groups[keyOf(k)] = g
				order = append(order, g)
			}
			g.n++
			if !v.IsNull() {
				g.nv++
				g.sum += v.Float()
				if g.lo.IsNull() || v.Int() < g.lo.Int() {
					g.lo = v
				}
				if g.hi.IsNull() || v.Int() > g.hi.Int() {
					g.hi = v
				}
			}
		}
		if err := c.AnalyzeAll(); err != nil {
			t.Fatal(err)
		}
		b := logical.NewBuilder(c)
		b.AddTable("g", "g")
		b.SelectCol("g", "k")
		b.SelectAgg(logical.AggCount, nil, "n")
		b.SelectAgg(logical.AggCount, b.Col("g", "v"), "nv")
		b.SelectAgg(logical.AggSum, b.Col("g", "v"), "s")
		b.SelectAgg(logical.AggMin, b.Col("g", "v"), "lo")
		b.SelectAgg(logical.AggMax, b.Col("g", "v"), "hi")
		b.GroupBy(b.Col("g", "k"))
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		opt := optimizer.New(c)
		plan, err := opt.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, drop := range hashDrops {
			rows, _ := execHashed(t, c, q, plan, opt.Model.Params, drop)
			if len(rows) != len(order) {
				t.Fatalf("domain=%d drop=%x: %d groups, want %d", domain, drop, len(rows), len(order))
			}
			for i, g := range order {
				sum := types.Null
				if g.nv > 0 {
					sum = types.NewFloat(g.sum)
				}
				want := schema.Row{g.key, types.NewInt(g.n), types.NewInt(g.nv), sum, g.lo, g.hi}
				if rows[i].String() != want.String() {
					t.Fatalf("domain=%d drop=%x: group %d is %v, want %v", domain, drop, i, rows[i], want)
				}
			}
		}
	}
}

// TestHashOperatorsReopen re-opens a hash join under an aggregation: each
// rebuilds its table to the same rows and work.
func TestHashOperatorsReopen(t *testing.T) {
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.AddTable("dept", "d")
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("e", "e_dept"), R: b.Col("d", "d_id")})
	b.SelectCol("d", "d_name")
	b.SelectAgg(logical.AggSum, b.Col("e", "e_salary"), "total")
	b.GroupBy(b.Col("d", "d_name"))
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := hashOptimizer(cat)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	meter := &Meter{}
	ex, err := NewExecutor(cat, q, nil, opt.Model.Params, meter)
	if err != nil {
		t.Fatal(err)
	}
	root, err := ex.Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	var aggNode *hashAggNode
	joins := 0
	Walk(root, func(n Node) {
		switch n := n.(type) {
		case *hashAggNode:
			aggNode = n
		case *hsjnNode:
			joins++
		}
	})
	if aggNode == nil || joins == 0 {
		t.Fatalf("want GRPBY over HSJN:\n%s", optimizer.Explain(plan, q))
	}
	want, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	firstWork := meter.Work()
	again, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, again, want, "re-open")
	if w := meter.Work(); w != 2*firstWork {
		t.Errorf("re-open charged %v, want %v again", w-firstWork, firstWork)
	}
}
