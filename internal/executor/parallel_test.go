package executor

import (
	"errors"
	"math"
	"strings"
	"sync"
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
	if !planContains(par, func(p *optimizer.Plan) bool {
		return p.Op == optimizer.OpExchange && p.ExKind == optimizer.ExGather
	}) {
		t.Fatalf("Workers=4 plan has no gather exchange:\n%s", explain)
	}
	if !planContains(par, func(p *optimizer.Plan) bool {
		return p.Op == optimizer.OpExchange && p.ExKind == optimizer.ExRepart
	}) {
		t.Fatalf("Workers=4 plan has no repartition exchange:\n%s", explain)
	}
	if !strings.Contains(explain, "gather dop=4") || !strings.Contains(explain, "repart dop=4") {
		t.Fatalf("explain does not render exchanges:\n%s", explain)
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
		return p.Op == optimizer.OpExchange && p.ExKind == optimizer.ExGather
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

// hsjnUnderGather locates the partitioned hash join inside the plan.
func hsjnUnderGather(t *testing.T, p *optimizer.Plan) *optimizer.Plan {
	t.Helper()
	var join *optimizer.Plan
	var walk func(*optimizer.Plan)
	walk = func(n *optimizer.Plan) {
		if n.Op == optimizer.OpExchange && n.ExKind == optimizer.ExGather &&
			n.Children[0].Op == optimizer.OpHSJN {
			join = n.Children[0]
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p)
	if join == nil {
		t.Fatalf("no partitioned hash join in plan:\n%s", optimizer.Explain(p, nil))
	}
	return join
}

// TestParallelCheckUpperBound hammers a firing upper-bound CHECK inside a
// partitioned hash join: at every DOP exactly one CheckViolation escapes,
// and its observed cardinality is deterministically Hi+1 — the increment
// that crossed the bound — no matter how the workers race.
func TestParallelCheckUpperBound(t *testing.T) {
	cat := fixture(t)
	q := joinQuery(t, cat)
	popt := parallelOptimizer(cat, 4)
	par, err := popt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	join := hsjnUnderGather(t, par)
	const hi = 10
	meta := &optimizer.CheckMeta{
		ID:      90,
		Flavor:  optimizer.ECWC,
		Range:   optimizer.Range{Lo: 0, Hi: hi},
		EstCard: hi,
		Where:   "parallel probe edge",
	}
	join.Children[0] = optimizer.WrapCheck(join.Children[0], meta)

	for _, dop := range []int{1, 2, 8} {
		for iter := 0; iter < 20; iter++ {
			_, _, runErr := execPlan(t, cat, q, par, popt.Model.Params, dop)
			var cv *CheckViolation
			if !errors.As(runErr, &cv) {
				t.Fatalf("dop=%d iter=%d: want CheckViolation, got %v", dop, iter, runErr)
			}
			if cv.Check != meta {
				t.Fatalf("dop=%d: violation from wrong check %+v", dop, cv.Check)
			}
			if cv.Actual != hi+1 {
				t.Fatalf("dop=%d iter=%d: actual %v, want %d", dop, iter, cv.Actual, hi+1)
			}
		}
	}
}

// TestParallelCheckLowerBound fires the end-of-stream lower bound. The check
// is evaluated only when the last partition stream drains, after every row
// has flowed through the full plan — so the violation's cardinality is the
// exact edge count and the work total stays identical across DOP even
// though the run errors.
func TestParallelCheckLowerBound(t *testing.T) {
	cat := fixture(t)
	q := joinQuery(t, cat)
	popt := parallelOptimizer(cat, 4)
	par, err := popt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	join := hsjnUnderGather(t, par)
	meta := &optimizer.CheckMeta{
		ID:      91,
		Flavor:  optimizer.LC,
		Range:   optimizer.Range{Lo: 1e12, Hi: math.Inf(1)},
		EstCard: 1e12,
		Where:   "parallel probe edge",
	}
	join.Children[0] = optimizer.WrapCheck(join.Children[0], meta)

	var baseActual, baseWork float64
	var baseRows int
	for _, dop := range []int{1, 2, 8} {
		rows, work, runErr := execPlan(t, cat, q, par, popt.Model.Params, dop)
		var cv *CheckViolation
		if !errors.As(runErr, &cv) {
			t.Fatalf("dop=%d: want CheckViolation, got %v", dop, runErr)
		}
		if !cv.Exact {
			t.Fatalf("dop=%d: end-of-stream violation should carry the exact count", dop)
		}
		if dop == 1 {
			baseActual, baseWork, baseRows = cv.Actual, work, len(rows)
			if baseActual <= 0 {
				t.Fatalf("edge count %v, want > 0", baseActual)
			}
			continue
		}
		if cv.Actual != baseActual {
			t.Errorf("dop=%d actual %v differs from dop=1 actual %v", dop, cv.Actual, baseActual)
		}
		if work != baseWork {
			t.Errorf("dop=%d work %v differs from dop=1 work %v", dop, work, baseWork)
		}
		if len(rows) != baseRows {
			t.Errorf("dop=%d drained %d rows before the violation, dop=1 drained %d", dop, len(rows), baseRows)
		}
	}
}

// TestParallelLowerBoundAfterSiblingFlush forces the interleaving behind a
// rare TestParallelCheckLowerBound failure: every probe worker that ends
// cleanly holds its final flush until the worker that raised the
// end-of-stream lower bound has dealt with it. The violation must still
// reach the consumer after all 500 joined rows, as it does at DOP 1, rather
// than overtake the siblings' last batches and have them drained away.
func TestParallelLowerBoundAfterSiblingFlush(t *testing.T) {
	cat := fixture(t)
	q := joinQuery(t, cat)
	popt := parallelOptimizer(cat, 4)
	par, err := popt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	join := hsjnUnderGather(t, par)
	meta := &optimizer.CheckMeta{
		ID:      92,
		Flavor:  optimizer.LC,
		Range:   optimizer.Range{Lo: 1e12, Hi: math.Inf(1)},
		EstCard: 1e12,
		Where:   "parallel probe edge",
	}
	join.Children[0] = optimizer.WrapCheck(join.Children[0], meta)
	for _, dop := range []int{1, 2, 8} {
		ex, err := NewExecutor(cat, q, nil, popt.Model.Params, &Meter{})
		if err != nil {
			t.Fatal(err)
		}
		ex.DOP = dop
		raised := make(chan struct{})
		var once sync.Once
		ex.endHold = func(err error) {
			if err == nil {
				<-raised
				return
			}
			once.Do(func() { close(raised) })
		}
		root, err := ex.Build(par)
		if err != nil {
			t.Fatal(err)
		}
		rows, runErr := Run(root)
		var cv *CheckViolation
		if !errors.As(runErr, &cv) || !cv.Exact {
			t.Fatalf("dop=%d: want the exact lower-bound violation, got %v", dop, runErr)
		}
		if len(rows) != 500 {
			t.Errorf("dop=%d: %d rows reached the consumer before the violation, want all 500", dop, len(rows))
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
	ex.stmt = ex.Meter
	g := &gatherNode{
		base:     base{plan: &optimizer.Plan{Op: optimizer.OpExchange}},
		consumer: consumer{ex: ex, dop: 1},
		clones:   []Node{clone},
		meters:   []*Meter{{}},
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
