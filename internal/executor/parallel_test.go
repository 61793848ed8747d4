package executor

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/types"
)

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

// parallelOptimizer returns an optimizer that forces a hash join and plans
// for the given worker count.
func parallelOptimizer(cat *catalog.Catalog, workers int) *optimizer.Optimizer {
	opt := optimizer.New(cat)
	opt.DisableNLJN = true
	opt.DisableMGJN = true
	opt.Model.Params.Workers = workers
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

// execPlan runs a prebuilt plan at the given DOP override, returning rows,
// work, and the error Run surfaced.
func execPlan(t *testing.T, cat *catalog.Catalog, q *logical.Query, plan *optimizer.Plan,
	params optimizer.CostParams, dop int) ([]schema.Row, float64, error) {
	t.Helper()
	meter := &Meter{}
	ex, err := NewExecutor(cat, q, nil, params, meter)
	if err != nil {
		t.Fatal(err)
	}
	ex.DOP = dop
	root, err := ex.Build(plan)
	if err != nil {
		t.Fatalf("build: %v\n%s", err, optimizer.Explain(plan, q))
	}
	rows, runErr := Run(root)
	return rows, meter.Work(), runErr
}

func TestParallelPlanShape(t *testing.T) {
	cat := fixture(t)
	q := joinQuery(t, cat)

	serial, err := parallelOptimizer(cat, 1).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if planContains(serial, func(p *optimizer.Plan) bool { return p.Op == optimizer.OpExchange }) {
		t.Fatalf("Workers=1 plan contains an exchange:\n%s", optimizer.Explain(serial, q))
	}

	par, err := parallelOptimizer(cat, 4).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	explain := optimizer.Explain(par, q)
	gatherUnder(t, par)
	if !strings.Contains(explain, "XCHG[gather dop=4]") || strings.Contains(explain, "repart") {
		t.Fatalf("want gathers and no repartition in the explain:\n%s", explain)
	}
}

// TestParallelJoinRowsAndWork checks the two halves of the determinism
// contract: the parallel plan returns the same multiset of rows as the
// serial plan at every DOP, and its simulated work total is bit-for-bit
// identical across DOP.
func TestParallelJoinRowsAndWork(t *testing.T) {
	cat := fixture(t)
	q := joinQuery(t, cat)

	sopt := parallelOptimizer(cat, 1)
	serialPlan, err := sopt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _, runErr := execPlan(t, cat, q, serialPlan, sopt.Model.Params, 0)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if len(want) == 0 {
		t.Fatal("serial join returned no rows; fixture broken")
	}

	popt := parallelOptimizer(cat, 4)
	par, err := popt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	var baseWork float64
	for _, dop := range []int{1, 2, 4, 8} {
		rows, work, runErr := execPlan(t, cat, q, par, popt.Model.Params, dop)
		if runErr != nil {
			t.Fatalf("dop=%d: %v", dop, runErr)
		}
		sameRows(t, rows, want, "parallel join vs serial")
		if dop == 1 {
			baseWork = work
		} else if work != baseWork {
			t.Errorf("dop=%d work %v differs from dop=1 work %v", dop, work, baseWork)
		}
	}
}

// TestParallelGatherScan covers the plain gather (no join): a single-table
// scan split into morsel stripes.
func TestParallelGatherScan(t *testing.T) {
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.Where(&expr.Cmp{Op: expr.GT, L: b.Col("e", "e_salary"), R: &expr.Const{Val: types.NewFloat(3000)}})
	b.SelectCol("e", "e_id")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	sopt := parallelOptimizer(cat, 1)
	serialPlan, err := sopt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _, runErr := execPlan(t, cat, q, serialPlan, sopt.Model.Params, 0)
	if runErr != nil {
		t.Fatal(runErr)
	}

	popt := parallelOptimizer(cat, 4)
	par, err := popt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if !planContains(par, func(p *optimizer.Plan) bool {
		return p.Op == optimizer.OpExchange
	}) {
		t.Fatalf("Workers=4 scan plan has no gather:\n%s", optimizer.Explain(par, q))
	}
	var baseWork float64
	for _, dop := range []int{1, 2, 4, 8} {
		rows, work, runErr := execPlan(t, cat, q, par, popt.Model.Params, dop)
		if runErr != nil {
			t.Fatalf("dop=%d: %v", dop, runErr)
		}
		sameRows(t, rows, want, "parallel scan vs serial")
		if dop == 1 {
			baseWork = work
		} else if work != baseWork {
			t.Errorf("dop=%d work %v differs from dop=1 work %v", dop, work, baseWork)
		}
	}
}

// gatherUnder locates the gathered input of the plan's hash join, preferring
// the pipelined probe edge.
func gatherUnder(t *testing.T, p *optimizer.Plan) *optimizer.Plan {
	t.Helper()
	var gather *optimizer.Plan
	p.Walk(func(n *optimizer.Plan) {
		if n.Op != optimizer.OpHSJN {
			return
		}
		for _, c := range n.Children {
			if c.Op == optimizer.OpExchange && gather == nil {
				gather = c
			}
		}
	})
	if gather == nil {
		t.Fatalf("no hash join over a gathered input in plan:\n%s", optimizer.Explain(p, nil))
	}
	return gather
}

// TestGatherRefusesClonedCheck: a CHECK inside a gathered subtree would be
// cloned once per worker, and each clone would see only its stripe of the
// edge. POP places CHECKs above every gather, so the executor refuses such a
// plan at build time rather than count a partial stream, at every DOP.
func TestGatherRefusesClonedCheck(t *testing.T) {
	cat := fixture(t)
	q := joinQuery(t, cat)
	popt := parallelOptimizer(cat, 4)
	par, err := popt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	gather := gatherUnder(t, par)
	gather.Children[0] = optimizer.WrapCheck(gather.Children[0], &optimizer.CheckMeta{
		ID:     90,
		Flavor: optimizer.ECWC,
		Range:  optimizer.Range{Lo: 0, Hi: 10},
		Where:  "gathered scan edge",
	})
	for _, dop := range []int{1, 2, 8} {
		ex, err := NewExecutor(cat, q, nil, popt.Model.Params, &Meter{})
		if err != nil {
			t.Fatal(err)
		}
		ex.DOP = dop
		if _, err := ex.Build(par); err == nil || !strings.Contains(err.Error(), "CHECK") {
			t.Errorf("dop=%d: build of a gather over a CHECK returned %v, want a refusal naming the CHECK", dop, err)
		}
	}
}

// closeErrNode is a synthetic leaf that streams rows indefinitely and fails
// on Close — the shape a partition clone takes when its resource release
// breaks after the consumer stopped early.
type closeErrNode struct {
	base
	closeErr error
}

func (n *closeErrNode) Open() error { n.stats = NodeStats{Opened: true}; return nil }
func (n *closeErrNode) NextBatch(int) (*Batch, error) {
	n.stats.RowsOut++
	b := NewBatch(1)
	b.Append(schema.Row{})
	return b, nil
}
func (n *closeErrNode) Close() error { return n.closeErr }

// TestGatherSurfacesCloseErrorOnEarlyClose pins that a worker clone's Close
// error survives an early (LIMIT-style) termination: the gather's abort
// drains the worker channel, and before the fix the drain silently discarded
// the error message the worker had delivered.
func TestGatherSurfacesCloseErrorOnEarlyClose(t *testing.T) {
	closeErr := errors.New("clone close failed")
	clone := &closeErrNode{base: base{plan: &optimizer.Plan{}}, closeErr: closeErr}
	ex := &Executor{Meter: &Meter{}, batchCap: batchRows}
	g := &gatherNode{
		base:   base{plan: &optimizer.Plan{Op: optimizer.OpExchange}},
		ex:     ex,
		dop:    1,
		clones: []Node{clone},
		meters: []*Meter{{}},
	}
	if err := g.Open(); err != nil {
		t.Fatal(err)
	}
	if b, err := g.NextBatch(0); err != nil || b == nil {
		t.Fatalf("first batch: %v, err=%v", b, err)
	}
	// The consumer stops before end-of-stream, as a LIMIT does.
	if err := g.Close(); !errors.Is(err, closeErr) {
		t.Fatalf("gather Close dropped the clone's close error: got %v", err)
	}
}
