package executor

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/types"
)

// empProjection plans SELECT e_name, e_salary * 2, e_id FROM emp: two bare
// columns around an arithmetic item. The plan's root is the projection.
func empProjection(t *testing.T, cat *catalog.Catalog) (*logical.Query, *optimizer.Plan, optimizer.CostParams) {
	t.Helper()
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.SelectCol("e", "e_name")
	b.SelectExpr(&expr.Arith{Op: expr.Mul, L: b.Col("e", "e_salary"), R: &expr.Const{Val: types.NewFloat(2)}}, "twice")
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
	if plan.Op != optimizer.OpProject {
		t.Fatalf("expected a PROJECT root:\n%s", optimizer.Explain(plan, q))
	}
	return q, plan, opt.Model.Params
}

// empProjected is what empProjection returns, computed from the heap.
func empProjected(t *testing.T, cat *catalog.Catalog) []schema.Row {
	t.Helper()
	tab, err := cat.Table("emp")
	if err != nil {
		t.Fatal(err)
	}
	var want []schema.Row
	for it := tab.Heap.Scan(); ; {
		row, _, ok := it.Next()
		if !ok {
			return want
		}
		want = append(want, schema.Row{row[3], types.NewFloat(row[2].Float() * 2), row[0]})
	}
}

// TestProjectionRowsAreStable pins the projection's half of the batch
// ownership contract: its batches are not ephemeral, so Run keeps their rows
// by reference, and that is safe only because every batch's rows live in
// storage of their own. Through runCaps, the rows Run returns at every
// capacity, three-row batches among them, equal the heap's after the tree
// pulled every later batch, and the poisoned run covers the projection. Then
// no row of a batch may share storage with a row of the batch before it.
func TestProjectionRowsAreStable(t *testing.T) {
	cat := fixture(t)
	q, plan, params := empProjection(t, cat)
	sameRows(t, runCaps(t, cat, q, plan, params, "projection"), empProjected(t, cat), "projection")

	ex, err := NewExecutor(cat, q, nil, params, &Meter{})
	if err != nil {
		t.Fatal(err)
	}
	ex.batchCap = 3
	root, err := ex.Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Open(); err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	var prev []schema.Row
	for n := 0; ; n++ {
		b, err := root.NextBatch(0)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if b.Ephemeral() {
			t.Fatal("projection batch is ephemeral; its rows would be copied again")
		}
		for _, r := range b.Rows {
			for _, p := range prev {
				if &r[0] == &p[0] {
					t.Fatalf("batch %d reuses the storage of the batch before it", n)
				}
			}
		}
		prev = append(prev[:0], b.Rows...)
	}
}

// TestProjectionPositionPastRowEnd: a bare column whose position is past the
// end of its input row fails with ColRef.Eval's error, after charging the
// rows processed so far, the failing one included, as a projection always
// has.
func TestProjectionPositionPastRowEnd(t *testing.T) {
	cat := fixture(t)
	q, plan, params := empProjection(t, cat)
	meter := &Meter{}
	ex, err := NewExecutor(cat, q, nil, params, meter)
	if err != nil {
		t.Fatal(err)
	}
	root, err := ex.Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	proj := root.(*projectNode)
	full := empRows(t, 2)
	short := schema.Row{full[1][0]} // e_name is at position 3
	proj.children[0] = &scriptedNode{base: base{plan: plan.Children[0]}, script: [][]schema.Row{{full[0], short, full[1]}}}
	_, runErr := Run(root)
	_, wantErr := (&expr.ColRef{Pos: 3}).Eval(nil, short)
	if runErr == nil || runErr.Error() != wantErr.Error() {
		t.Fatalf("error = %v, want %v", runErr, wantErr)
	}
	want := &Meter{}
	want.AddTicks(2 * Ticks(ex.Cost.OutputRow))
	if meter.Work() != want.Work() {
		t.Errorf("work = %v, want %v: two rows processed", meter.Work(), want.Work())
	}
}
