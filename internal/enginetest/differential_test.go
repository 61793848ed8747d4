// Package enginetest hosts cross-package differential tests: random
// schemas, data and queries evaluated by brute force and compared against
// every optimizer configuration and POP mode.
package enginetest

import (
	"flag"
	"fmt"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/pop"
	"repro/internal/schema"
	"repro/internal/types"
)

// This file is a differential test harness: it generates random schemas,
// data and queries, evaluates each query by brute force, and checks that
// every optimizer configuration — every join method, greedy enumeration,
// POP with each checkpoint flavor, and every planner strategy served through
// the plan cache — produces the same multiset of rows.

// canon renders rows as sorted strings for multiset comparison.
func canon(rows []schema.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// diffRNG is a tiny deterministic PRNG for the generator.
type diffRNG struct{ s uint64 }

func (r *diffRNG) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

func (r *diffRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// diffSchema describes one random table.
type diffTable struct {
	name string
	rows int
	// every table has: id INT (0..rows-1, unique), fk INT (random into the
	// previous table), val INT (small domain), tag STRING (tiny domain),
	// maybe NULLs in val.
}

// buildRandomDB creates 2-4 chained tables with random sizes.
func buildRandomDB(t *testing.T, r *diffRNG) (*catalog.Catalog, []diffTable) {
	t.Helper()
	cat := catalog.New()
	n := 2 + r.intn(2) // 2-3 tables keeps brute force tractable
	tables := make([]diffTable, n)
	prevRows := 0
	for i := 0; i < n; i++ {
		rows := 15 + r.intn(45)
		tables[i] = diffTable{name: fmt.Sprintf("t%d", i), rows: rows}
		tab, err := cat.CreateTable(tables[i].name, schema.New(
			schema.Column{Name: "id", Type: types.KindInt},
			schema.Column{Name: "fk", Type: types.KindInt},
			schema.Column{Name: "val", Type: types.KindInt, Nullable: true},
			schema.Column{Name: "tag", Type: types.KindString},
		))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < rows; j++ {
			fk := types.NewInt(0)
			if prevRows > 0 {
				fk = types.NewInt(int64(r.intn(prevRows)))
			}
			val := types.Datum(types.NewInt(int64(r.intn(10))))
			if r.intn(10) == 0 {
				val = types.Null
			}
			tab.Heap.MustInsert(schema.Row{
				types.NewInt(int64(j)),
				fk,
				val,
				types.NewString(string(rune('a' + r.intn(4)))),
			})
		}
		// Index the id of every other table; sometimes add a B-tree on
		// val/tag so non-key index access paths join the configuration sweep.
		if r.intn(2) == 0 {
			if _, err := cat.CreateBTreeIndex(tables[i].name+"_pk", tables[i].name, "id"); err != nil {
				t.Fatal(err)
			}
		}
		if r.intn(3) == 0 {
			col := []string{"val", "tag"}[r.intn(2)]
			if _, err := cat.CreateBTreeIndex(tables[i].name+"_x", tables[i].name, col); err != nil {
				t.Fatal(err)
			}
		}
		prevRows = rows
	}
	if err := cat.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return cat, tables
}

// joinChain starts a query over the chain t0 ← t1 ← ... joined via fk=id.
func joinChain(cat *catalog.Catalog, tables []diffTable) *logical.Builder {
	b := logical.NewBuilder(cat)
	for i := range tables {
		b.AddTable(tables[i].name, fmt.Sprintf("a%d", i))
	}
	for i := 1; i < len(tables); i++ {
		b.Where(&expr.Cmp{Op: expr.EQ,
			L: b.Col(fmt.Sprintf("a%d", i), "fk"),
			R: b.Col(fmt.Sprintf("a%d", i-1), "id"),
		})
	}
	return b
}

// buildRandomQuery adds random local predicates to the join chain; selects
// one column per table.
func buildRandomQuery(t *testing.T, cat *catalog.Catalog, tables []diffTable, r *diffRNG) *logical.Query {
	t.Helper()
	b := joinChain(cat, tables)
	// Random local predicates.
	for i := range tables {
		alias := fmt.Sprintf("a%d", i)
		switch r.intn(5) {
		case 0:
			b.Where(&expr.Cmp{Op: expr.LT, L: b.Col(alias, "val"),
				R: &expr.Const{Val: types.NewInt(int64(2 + r.intn(8)))}})
		case 1:
			b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col(alias, "tag"),
				R: &expr.Const{Val: types.NewString(string(rune('a' + r.intn(4))))}})
		case 2:
			b.Where(&expr.InList{Input: b.Col(alias, "val"), List: []expr.Expr{
				&expr.Const{Val: types.NewInt(int64(r.intn(10)))},
				&expr.Const{Val: types.NewInt(int64(r.intn(10)))},
			}})
		case 3:
			b.Where(&expr.IsNull{E: b.Col(alias, "val"), Negate: true})
		}
		b.SelectCol(alias, "id")
	}
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// sargableShape is a conjunction of constant comparisons on one indexed
// column — the predicates the optimizer turns into index bounds. A bound's
// value counts back from the table's row count when negative, so the ranges
// stay narrow enough for the index to win on cost.
type sargableShape struct {
	name   string
	bounds []sargableBound
}

type sargableBound struct {
	op expr.CmpOp
	at int
}

var sargableShapes = []sargableShape{
	{"oneBound", []sargableBound{{expr.GE, -5}}},
	{"twoSided", []sargableBound{{expr.GE, 3}, {expr.LT, 8}}},
	{"loTightFirst", []sargableBound{{expr.GE, -4}, {expr.GE, -8}}},
	{"loLooseFirst", []sargableBound{{expr.GT, -9}, {expr.GE, -4}}},
	{"hiTightFirst", []sargableBound{{expr.LE, 3}, {expr.LT, 8}}},
	{"hiLooseFirst", []sargableBound{{expr.LE, 7}, {expr.LE, 3}}},
	{"eqThenRange", []sargableBound{{expr.EQ, 6}, {expr.GE, 2}}},
	{"rangeThenEq", []sargableBound{{expr.LE, 9}, {expr.EQ, 6}}},
	{"twoEq", []sargableBound{{expr.EQ, 3}, {expr.EQ, 4}}},
}

// buildSargableQuery puts the shape's predicates on the id of the first
// table of the chain that has a B-tree on it; nil if none has.
func buildSargableQuery(t *testing.T, cat *catalog.Catalog, tables []diffTable, sh sargableShape) *logical.Query {
	t.Helper()
	for i := range tables {
		tab, err := cat.Table(tables[i].name)
		if err != nil {
			t.Fatal(err)
		}
		if tab.BTreeOn(0) == nil {
			continue
		}
		b := joinChain(cat, tables)
		for _, bd := range sh.bounds {
			at := bd.at
			if at < 0 {
				at += tables[i].rows
			}
			b.Where(&expr.Cmp{Op: bd.op, L: b.Col(fmt.Sprintf("a%d", i), "id"), R: &expr.Const{Val: types.NewInt(int64(at))}})
		}
		for j := range tables {
			b.SelectCol(fmt.Sprintf("a%d", j), "id")
		}
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	return nil
}

// usesIndexBounds reports whether the plan reads a table through index
// bounds extracted from its local predicates.
func usesIndexBounds(p *optimizer.Plan) bool {
	found := false
	p.Walk(func(n *optimizer.Plan) {
		if n.Op == optimizer.OpIndexScan && (n.IndexLo != nil || n.IndexHi != nil) {
			found = true
		}
	})
	return found
}

// bruteForce evaluates the query by exhaustive nested loops.
func bruteForce(t *testing.T, cat *catalog.Catalog, q *logical.Query) []schema.Row {
	t.Helper()
	// Materialize all tables.
	heaps := make([][]schema.Row, len(q.Tables))
	for i, tr := range q.Tables {
		tab, err := cat.Table(tr.Table)
		if err != nil {
			t.Fatal(err)
		}
		it := tab.Heap.Scan()
		for {
			row, _, ok := it.Next()
			if !ok {
				break
			}
			heaps[i] = append(heaps[i], row)
		}
	}
	pred := expr.Conjoin(q.Where...)
	var out []schema.Row
	var rec func(i int, acc schema.Row)
	rec = func(i int, acc schema.Row) {
		if i == len(heaps) {
			keep := true
			if pred != nil {
				v, err := pred.Eval(nil, acc)
				if err != nil {
					t.Fatal(err)
				}
				if keep, err = expr.Accept(v); err != nil {
					t.Fatal(err)
				}
			}
			if keep {
				proj := make(schema.Row, len(q.Select))
				for j, it := range q.Select {
					v, err := it.E.Eval(nil, acc)
					if err != nil {
						t.Fatal(err)
					}
					proj[j] = v
				}
				out = append(out, proj)
			}
			return
		}
		for _, row := range heaps[i] {
			rec(i+1, acc.Concat(row))
		}
	}
	rec(0, nil)
	return out
}

// diffRows compares two canonical row lists; "" means equal.
func diffRows(got, want []string) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, brute force %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("row %d: %s != %s", i, got[i], want[i])
		}
	}
	return ""
}

var diffSeeds = flag.String("diff-seeds", "1-25",
	"inclusive seed range LO-HI of TestDifferentialRandomQueries' random databases")

// seedRange parses -diff-seeds.
func seedRange(t *testing.T) (lo, hi uint64) {
	t.Helper()
	if _, err := fmt.Sscanf(*diffSeeds, "%d-%d", &lo, &hi); err != nil || lo < 1 || hi < lo {
		t.Fatalf("-diff-seeds %q: want LO-HI with 1 <= LO <= HI", *diffSeeds)
	}
	return lo, hi
}

// TestDifferentialRandomQueries is the metamorphic sweep: random databases
// (seeds 1–25 unless -diff-seeds names another range), each with one random
// query and one query per sargable shape its indexes allow, each executed
// under 5 optimizer configurations, 3 POP modes and every planner strategy
// through the plan cache (cold, then warm), all compared to brute force.
func TestDifferentialRandomQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	configs := []struct {
		name string
		cfg  func(*optimizer.Optimizer)
	}{
		{"default", func(o *optimizer.Optimizer) {}},
		{"onlyHash", func(o *optimizer.Optimizer) { o.DisableNLJN = true; o.DisableMGJN = true }},
		{"onlyMerge", func(o *optimizer.Optimizer) { o.DisableNLJN = true; o.DisableHSJN = true }},
		{"onlyNLJN", func(o *optimizer.Optimizer) { o.DisableHSJN = true; o.DisableMGJN = true }},
		{"greedy", func(o *optimizer.Optimizer) { o.JoinOrder = optimizer.JoinOrderGreedy }},
	}
	type diffQuery struct {
		name string
		q    *logical.Query
	}
	cacheHits, boundedPlans := map[string]int{}, map[string]int{}
	lo, hi := seedRange(t)
	for seed := lo; seed <= hi; seed++ {
		r := &diffRNG{s: seed * 0x9E3779B97F4A7C15}
		cat, tables := buildRandomDB(t, r)
		queries := []diffQuery{{"random", buildRandomQuery(t, cat, tables, r)}}
		for _, sh := range sargableShapes {
			if q := buildSargableQuery(t, cat, tables, sh); q != nil {
				queries = append(queries, diffQuery{sh.name, q})
			}
		}
		for _, dq := range queries {
			id, q := fmt.Sprintf("%d/%s", seed, dq.name), dq.q
			want := canon(bruteForce(t, cat, q))

			for _, c := range configs {
				opt := optimizer.New(cat)
				c.cfg(opt)
				plan, err := opt.Optimize(q)
				if err != nil {
					t.Fatalf("seed %s %s: optimize: %v\nquery: %s", id, c.name, err, q)
				}
				ex, err := executor.NewExecutor(cat, q, nil, opt.Model.Params, &executor.Meter{})
				if err != nil {
					t.Fatal(err)
				}
				root, err := ex.Build(plan)
				if err != nil {
					t.Fatalf("seed %s %s: build: %v\n%s", id, c.name, err, optimizer.Explain(plan, q))
				}
				rows, err := executor.Run(root)
				if err != nil {
					t.Fatalf("seed %s %s: run: %v\n%s", id, c.name, err, optimizer.Explain(plan, q))
				}
				if d := diffRows(canon(rows), want); d != "" {
					t.Fatalf("seed %s %s: %s\nquery: %s\nplan:\n%s", id, c.name, d, q, optimizer.Explain(plan, q))
				}
				if usesIndexBounds(plan) {
					boundedPlans[dq.name]++
				}
			}

			// POP under the default policy and pipelined ECDC.
			for _, mode := range []string{"popDefault", "popECDC"} {
				opts := pop.DefaultOptions()
				if mode == "popECDC" {
					opts.Pipelined = true
					opts.Policy = pop.Policy{ECDC: true, RequireBoundedRange: true}
				}
				res, err := pop.NewRunner(cat, opts).Run(q, nil)
				if err != nil {
					t.Fatalf("seed %s %s: %v\nquery: %s", id, mode, err, q)
				}
				if d := diffRows(canon(res.Rows), want); d != "" {
					t.Fatalf("seed %s %s: %s (reopts=%d)\nquery: %s", id, mode, d, res.Reopts, q)
				}
			}

			// Every planner strategy through the plan cache, twice: the first
			// run must miss and cache its plan; the second is a guarded hit, or a
			// fresh plan after a guard reject or an invalidating re-optimization.
			for _, st := range pop.Strategies() {
				opts := pop.DefaultOptions()
				opts.Planner = st
				runner := pop.NewRunner(cat, opts)
				runner.Cache = pop.NewCache()
				for pass := 0; pass < 2; pass++ {
					res, err := runner.Run(q, nil)
					if err != nil {
						t.Fatalf("seed %s %s pass %d: %v\nquery: %s", id, st.Name(), pass, err, q)
					}
					info := res.Cache
					if pass == 0 && info.Hit {
						t.Fatalf("seed %s %s: a fresh cache reported a hit", id, st.Name())
					}
					if info.Hit {
						cacheHits[st.Name()]++
					}
					if d := diffRows(canon(res.Rows), want); d != "" {
						t.Fatalf("seed %s %s pass %d (hit=%t reopts=%d): %s\nquery: %s",
							id, st.Name(), pass, info.Hit, res.Reopts, d, q)
					}
				}
			}
		}
	}
	for _, st := range pop.Strategies() {
		if cacheHits[st.Name()] == 0 {
			t.Errorf("%s: no second run was served from the cache; the hit path went uncompared", st.Name())
		}
	}
	for _, sh := range sargableShapes {
		if boundedPlans[sh.name] == 0 {
			t.Errorf("%s: no plan read its table through index bounds; the shape went uncompared", sh.name)
		}
	}
}
