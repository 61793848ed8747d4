package executor

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/tpch"
	"repro/internal/types"
)

// tableSetName names a plan node's table set by its sorted aliases.
func tableSetName(q *logical.Query, mask uint64) string {
	var names []string
	for i, tr := range q.Tables {
		if mask&(1<<uint(i)) != 0 {
			names = append(names, tr.Alias)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// withTemps puts a TEMP over the outer of every NLJN, as the LCEM checkpoint
// placement does, without the CHECK above it.
func withTemps(p *optimizer.Plan) *optimizer.Plan {
	if len(p.Children) == 0 {
		return p
	}
	n := optimizer.CloneNode(p)
	for i, c := range p.Children {
		n.Children[i] = withTemps(c)
	}
	if n.Op == optimizer.OpNLJN {
		n.Children[0] = optimizer.WrapTemp(n.Children[0])
	}
	return n
}

// firstBatch opens n on its own, pulls its first batch and closes it.
func firstBatch(t *testing.T, n Node) []schema.Row {
	t.Helper()
	if err := n.Open(); err != nil {
		t.Fatal(err)
	}
	b, err := n.NextBatch(0)
	if err != nil || b == nil {
		t.Fatalf("%s: first batch %v, err %v", n.Plan().Op, b, err)
	}
	rows := appendBatchRows(nil, b)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestJoinRowsCarryLiveColumns pins the row layout of the serving workload's
// joins: a join's rows carry only the columns still read above its table set
// — by a select item, a GROUP BY key, or a join predicate reaching a table
// outside the set. The plans are the cached plan at binding 25 (two hash
// joins) and the cold plan at 2.5 (TEMP under an index NLJN, then a hash
// join). Every join of them emits two of its 11, 17 or 22 logical columns.
func TestJoinRowsCarryLiveColumns(t *testing.T) {
	cat := catalog.New()
	if err := tpch.Load(cat, tpch.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	q, err := sqlparse.Parse(cat, tpch.Q10SQL)
	if err != nil {
		t.Fatal(err)
	}
	live := map[string][]string{
		"customer,orders":          {"orders.o_orderkey", "customer.c_name"},
		"lineitem,orders":          {"lineitem.l_extendedprice", "orders.o_custkey"},
		"customer,lineitem,orders": {"lineitem.l_extendedprice", "customer.c_name"},
	}
	seen := map[string]int{}
	for _, binding := range []float64{25, 2.5} {
		params := []types.Datum{types.NewFloat(binding)}
		opt := optimizer.New(cat)
		opt.ParamBindings = params
		plan, err := opt.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		plan = withTemps(plan)
		ex, err := NewExecutor(cat, q, params, opt.Model.Params, &Meter{})
		if err != nil {
			t.Fatal(err)
		}
		root, err := ex.Build(plan)
		if err != nil {
			t.Fatalf("build: %v\n%s", err, optimizer.Explain(plan, q))
		}
		Walk(root, func(n Node) {
			p := n.Plan()
			if !p.Op.IsJoin() {
				return
			}
			set := tableSetName(q, p.Tables())
			names, ok := live[set]
			if !ok {
				t.Fatalf("unexpected join over %s:\n%s", set, optimizer.Explain(plan, q))
			}
			// The layout keeps the live columns in logical order.
			var cols []int
			for _, c := range p.Cols {
				for _, name := range names {
					if q.ColumnName(c) == name {
						cols = append(cols, c)
					}
				}
			}
			for _, row := range firstBatch(t, n) {
				if len(row) != len(cols) {
					t.Fatalf("binding %g: %s over %s emits %d columns, want %d (%v of %d)",
						binding, p.Op, set, len(row), len(cols), names, len(p.Cols))
				}
				for i, d := range row {
					if k := q.ColumnType(cols[i]); !d.IsNull() && d.Kind() != k {
						t.Fatalf("%s over %s: column %d is a %v, want %s (%v)", p.Op, set, i, d.Kind(), q.ColumnName(cols[i]), k)
					}
				}
			}
			seen[set]++
		})
	}
	for set := range live {
		if seen[set] == 0 {
			t.Errorf("no plan joined %s; its layout went unchecked", set)
		}
	}
}
