package executor

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/types"
)

func TestBatchAllocSlabSemantics(t *testing.T) {
	b := NewBatch(4)
	r1 := b.Alloc(3)
	r1[0], r1[1], r1[2] = types.NewInt(1), types.NewInt(2), types.NewInt(3)
	r2 := b.Alloc(3)
	r2[0], r2[1], r2[2] = types.NewInt(4), types.NewInt(5), types.NewInt(6)
	if !b.Ephemeral() {
		t.Error("Alloc must mark the batch ephemeral")
	}
	if b.Len() != 2 {
		t.Fatalf("len = %d, want 2", b.Len())
	}
	if b.Rows[0][0].Int() != 1 || b.Rows[1][2].Int() != 6 {
		t.Error("carved rows lost their values")
	}

	// Slab growth mid-batch must leave previously carved rows intact.
	g := NewBatch(2)
	a := g.Alloc(2)
	a[0], a[1] = types.NewInt(10), types.NewInt(11)
	wide := g.Alloc(64) // exceeds the initial slab block
	wide[0] = types.NewInt(12)
	if g.Rows[0][0].Int() != 10 || g.Rows[0][1].Int() != 11 {
		t.Error("slab growth invalidated an earlier row")
	}

	// Reset keeps capacity but empties rows and slab.
	b.Reset()
	if b.Len() != 0 || b.Ephemeral() {
		t.Error("Reset must empty the batch and clear ephemeral")
	}

	// Zero-width rows are representable (projection of no columns).
	z := NewBatch(1)
	if got := z.Alloc(0); len(got) != 0 {
		t.Errorf("Alloc(0) row has %d datums", len(got))
	}
}

func TestAppendBatchRowsCopiesEphemeral(t *testing.T) {
	b := NewBatch(2)
	r := b.Alloc(2)
	r[0], r[1] = types.NewInt(1), types.NewInt(2)
	var dst []schema.Row
	dst = appendBatchRows(dst, b)

	// Producer reuses the slab for its next batch; the copy must survive.
	b.Reset()
	r2 := b.Alloc(2)
	r2[0], r2[1] = types.NewInt(99), types.NewInt(99)
	if dst[0][0].Int() != 1 || dst[0][1].Int() != 2 {
		t.Error("ephemeral rows were retained by reference, not copied")
	}
}

func intRow(v int64) schema.Row { return schema.Row{types.NewInt(v)} }

// TestAppendBatchRowsNonEphemeral pins the stable fast path: rows of a
// non-ephemeral batch append by reference — same backing array, zero datum
// copies — because stable rows are owned elsewhere and safe to retain.
func TestAppendBatchRowsNonEphemeral(t *testing.T) {
	b := NewBatch(3)
	r1 := schema.Row{types.NewInt(1), types.NewInt(2)}
	r2 := schema.Row{types.NewInt(3)}
	b.Append(r1)
	b.Append(r2)
	if b.Ephemeral() {
		t.Fatal("Append must not mark the batch ephemeral")
	}

	dst := make([]schema.Row, 0, 4)
	dst = appendBatchRows(dst, b)
	if len(dst) != 2 {
		t.Fatalf("len(dst) = %d, want 2", len(dst))
	}
	if &dst[0][0] != &r1[0] || &dst[1][0] != &r2[0] {
		t.Error("non-ephemeral rows must append by reference, not copy")
	}

	// Appending onto an existing prefix keeps prior rows intact.
	prefix := []schema.Row{intRow(7)}
	out := appendBatchRows(prefix, b)
	if len(out) != 3 || out[0][0].Int() != 7 {
		t.Errorf("prefix corrupted: %v", out)
	}
	// Mutating the source row is visible through dst: proof of aliasing,
	// which is the documented contract for stable rows.
	r1[0] = types.NewInt(42)
	if dst[0][0].Int() != 42 {
		t.Error("expected reference semantics for stable rows")
	}
}

// execAt builds and drains a plan with batches of capRows rows. Only this
// package can set the capacity; everything outside it runs at batchRows.
func execAt(t *testing.T, cat *catalog.Catalog, q *logical.Query, plan *optimizer.Plan,
	params optimizer.CostParams, dop, capRows int) ([]schema.Row, float64, error) {
	t.Helper()
	return execWrapped(t, cat, q, plan, params, dop, capRows, nil)
}

// execWrapped is execAt with every node Build returns passed through wrap.
func execWrapped(t *testing.T, cat *catalog.Catalog, q *logical.Query, plan *optimizer.Plan,
	params optimizer.CostParams, dop, capRows int, wrap func(Node) Node) ([]schema.Row, float64, error) {
	t.Helper()
	meter := &Meter{}
	ex, err := NewExecutor(cat, q, nil, params, meter)
	if err != nil {
		t.Fatal(err)
	}
	ex.DOP = dop
	ex.batchCap = capRows
	ex.wrap = wrap
	root, err := ex.Build(plan)
	if err != nil {
		t.Fatalf("build: %v\n%s", err, optimizer.Explain(plan, q))
	}
	rows, err := Run(root)
	return rows, meter.Work(), err
}

// poisonedDatum overwrites every datum a poisonNode handed out once its
// consumer pulls again.
var poisonedDatum = types.NewString("poisoned: row kept past the next pull")

// poisonNode enforces the batch ownership contract on the edge above its
// child: it copies the child's rows into its own ephemeral batch and, before
// each new pull, overwrites the datums it handed out last time. A consumer
// that keeps ephemeral rows across pulls without copying them (DESIGN §11.1)
// reads the sentinel. Everything else — Open, Close, Plan, Stats, Children,
// Rewind, Materialized and the exchange's partition stripe — is the child's.
type poisonNode struct {
	Node
	out *Batch
}

func poisoned(n Node) Node { return &poisonNode{Node: n, out: NewBatch(1)} }

func (p *poisonNode) NextBatch(max int) (*Batch, error) {
	for _, r := range p.out.Rows {
		for i := range r {
			r[i] = poisonedDatum
		}
	}
	p.out.Reset()
	b, err := p.Node.NextBatch(max)
	if err != nil || b == nil {
		return nil, err
	}
	for _, r := range b.Rows {
		copy(p.out.Alloc(len(r)), r)
	}
	return p.out, nil
}

func (p *poisonNode) Rewind() error {
	rw, ok := p.Node.(Rewinder)
	if !ok {
		return fmt.Errorf("executor: %s does not support rewind", p.Node.Plan().Op)
	}
	return rw.Rewind()
}

func (p *poisonNode) Materialized() ([]schema.Row, bool) {
	if m, ok := p.Node.(Materializer); ok {
		return m.Materialized()
	}
	return nil, false
}

func (p *poisonNode) setPartition(part, of int) {
	if pn, ok := p.Node.(partitioned); ok {
		pn.setPartition(part, of)
	}
}

// runCaps executes one plan with one-row batches — every pull moves a single
// row, the order of operations of a row-at-a-time engine — and at capacities
// that put batch boundaries inside, at and beyond every operator's stream,
// asserting identical result multisets and a bit-identical work total. A
// last, poisoned run wraps every operator in a poisonNode, so an operator
// that keeps a child's ephemeral rows without copying them changes the
// result. It returns the one-row run's rows.
func runCaps(t *testing.T, cat *catalog.Catalog, q *logical.Query, plan *optimizer.Plan,
	params optimizer.CostParams, dop int, label string) []schema.Row {
	t.Helper()
	wantRows, wantWork, err := execAt(t, cat, q, plan, params, dop, 1)
	if err != nil {
		t.Fatalf("%s cap=1: %v", label, err)
	}
	for _, capRows := range []int{3, 7, batchRows, 1024} {
		rows, work, err := execAt(t, cat, q, plan, params, dop, capRows)
		if err != nil {
			t.Fatalf("%s cap=%d: %v", label, capRows, err)
		}
		sameRows(t, rows, wantRows, label)
		if work != wantWork {
			t.Errorf("%s cap=%d: work = %v, want %v (one-row batches)", label, capRows, work, wantWork)
		}
	}
	rows, work, err := execWrapped(t, cat, q, plan, params, dop, 3, poisoned)
	if err != nil {
		t.Fatalf("%s poisoned: %v", label, err)
	}
	sameRows(t, rows, wantRows, label+" poisoned")
	if work != wantWork {
		t.Errorf("%s poisoned: work = %v, want %v (one-row batches)", label, work, wantWork)
	}
	return wantRows
}

// TestBatchMatchesRowExecution pins the protocol's invariant: result rows and
// the simulated work total do not depend on where batch boundaries fall —
// from one row per pull up to batches larger than any input — across plan
// shapes that exercise scans, every join method, aggregation and sort.
func TestBatchMatchesRowExecution(t *testing.T) {
	cat := fixture(t)

	t.Run("threeWayJoin", func(t *testing.T) {
		q := threeWayQuery(t, cat, 50)
		configs := map[string]func(*optimizer.Optimizer){"default": func(o *optimizer.Optimizer) {}}
		for name, cfg := range joinConfigs {
			configs[name] = cfg
		}
		for name, cfg := range configs {
			opt := optimizer.New(cat)
			cfg(opt)
			plan, err := opt.Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			rows := runCaps(t, cat, q, plan, opt.Model.Params, 1, name)
			sameRows(t, rows, reference(t, cat, 50), name)
		}
	})

	t.Run("aggregationAndSort", func(t *testing.T) {
		b := logical.NewBuilder(cat)
		b.AddTable("emp", "e")
		b.AddTable("dept", "d")
		b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("e", "e_dept"), R: b.Col("d", "d_id")})
		b.SelectCol("d", "d_name")
		b.SelectAgg(logical.AggCount, nil, "n")
		b.SelectAgg(logical.AggSum, b.Col("e", "e_salary"), "total")
		b.GroupBy(b.Col("d", "d_name"))
		b.OrderBy(b.Col("d", "d_name"), false)
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		opt := optimizer.New(cat)
		plan, err := opt.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		rows := runCaps(t, cat, q, plan, opt.Model.Params, 1, "agg")
		if len(rows) != 4 {
			t.Errorf("got %d groups, want 4", len(rows))
		}
	})

	t.Run("indexScanWithLimit", func(t *testing.T) {
		b := logical.NewBuilder(cat)
		b.AddTable("emp", "e")
		b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("e", "e_id"), R: &expr.Const{Val: types.NewInt(200)}})
		b.SelectCol("e", "e_id")
		b.OrderBy(b.Col("e", "e_id"), true)
		b.Limit(7)
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		opt := optimizer.New(cat)
		plan, err := opt.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		rows := runCaps(t, cat, q, plan, opt.Model.Params, 1, "limit")
		if len(rows) != 7 {
			t.Errorf("limit returned %d rows", len(rows))
		}
	})

	// A SORT at the root streams its buffer out in order, whatever the
	// capacity cuts it into.
	t.Run("sortRoot", func(t *testing.T) {
		b := logical.NewBuilder(cat)
		b.AddTable("emp", "e")
		b.SelectCol("e", "e_id")
		b.OrderBy(b.Col("e", "e_id"), true)
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		opt := optimizer.New(cat)
		plan, err := opt.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Op != optimizer.OpSort {
			t.Skipf("expected SORT root, got %s", plan.Op)
		}
		rows := runCaps(t, cat, q, plan, opt.Model.Params, 1, "sortRoot")
		if len(rows) != 500 {
			t.Errorf("got %d rows", len(rows))
		}
		for i := 1; i < len(rows); i++ {
			if rows[i-1][0].Int() < rows[i][0].Int() {
				t.Fatal("descending order violated")
			}
		}
	})
}

// TestBatchParallelMatchesRow extends the invariant across exchanges: a hash
// join over gathered inputs must return identical rows and work at every
// capacity and every DOP.
func TestBatchParallelMatchesRow(t *testing.T) {
	cat := fixture(t)
	q := joinQuery(t, cat)
	opt := parallelOptimizer(cat, 4)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if !planContains(plan, func(p *optimizer.Plan) bool { return p.Op == optimizer.OpExchange }) {
		t.Fatalf("expected a parallel plan:\n%s", optimizer.Explain(plan, q))
	}
	var wantRows []schema.Row
	var wantWork float64
	for _, dop := range []int{1, 2, 4} {
		rows := runCaps(t, cat, q, plan, opt.Model.Params, dop, "parallel")
		_, work, err := execAt(t, cat, q, plan, opt.Model.Params, dop, batchRows)
		if err != nil {
			t.Fatal(err)
		}
		if wantRows == nil {
			wantRows, wantWork = rows, work
			continue
		}
		sameRows(t, rows, wantRows, "parallel dop")
		if work != wantWork {
			t.Errorf("dop=%d: work = %v, want %v", dop, work, wantWork)
		}
	}
}

// scanUnderCheck plans SELECT e_id FROM emp and wraps the scan below the
// projection in a CHECK with the given range.
func scanUnderCheck(t *testing.T, cat *catalog.Catalog, r optimizer.Range, flavor optimizer.CheckFlavor) (*logical.Query, *optimizer.Plan, optimizer.CostParams) {
	t.Helper()
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
	plan.Children[0] = wrapCheck(plan.Children[0], r, flavor)
	return q, plan, opt.Model.Params
}

// violationAt executes a plan expecting a CheckViolation, returning the rows
// delivered before the violation and the work total.
func violationAt(t *testing.T, cat *catalog.Catalog, q *logical.Query, plan *optimizer.Plan,
	params optimizer.CostParams, capRows int) ([]schema.Row, float64, *CheckViolation) {
	t.Helper()
	rows, work, runErr := execAt(t, cat, q, plan, params, 0, capRows)
	cv, ok := runErr.(*CheckViolation)
	if !ok {
		t.Fatalf("cap=%d: want CheckViolation, got %v", capRows, runErr)
	}
	return rows, work, cv
}

// TestBatchCheckUpperViolationParity pins the eager CHECK's semantics: the
// violation fires at exactly count == Hi+1, the rows below the bound are
// still delivered, and the work total is the one-row-batch total bit for bit
// — at every capacity, including ones that straddle the crossing row.
func TestBatchCheckUpperViolationParity(t *testing.T) {
	cat := fixture(t)
	q, plan, params := scanUnderCheck(t, cat, optimizer.Range{Lo: 0, Hi: 100}, optimizer.ECDC)

	wantRows, wantWork, wantCV := violationAt(t, cat, q, plan, params, 1)
	if wantCV.Actual != 101 || wantCV.Exact || len(wantRows) != 100 {
		t.Fatalf("one-row batches: actual=%v exact=%v after %d rows", wantCV.Actual, wantCV.Exact, len(wantRows))
	}
	for _, capRows := range []int{7, batchRows, 100, 101, 1024} {
		rows, work, cv := violationAt(t, cat, q, plan, params, capRows)
		if cv.Actual != 101 || cv.Exact {
			t.Errorf("cap=%d: violation actual=%v exact=%v, want 101/false", capRows, cv.Actual, cv.Exact)
		}
		if len(rows) != len(wantRows) {
			t.Errorf("cap=%d: %d rows delivered before violation, want %d", capRows, len(rows), len(wantRows))
		}
		if work != wantWork {
			t.Errorf("cap=%d: work = %v, want %v", capRows, work, wantWork)
		}
	}
}

// TestCheckFractionalUpperBound: validity ranges are real-valued, counts are
// not. The first count above Hi = 27.5 is 28, and that integer — not Hi+1 —
// is the lower bound the violation reports and the feedback cache records.
func TestCheckFractionalUpperBound(t *testing.T) {
	cat := fixture(t)
	q, plan, params := scanUnderCheck(t, cat, optimizer.Range{Lo: 0, Hi: 27.5}, optimizer.ECDC)
	for _, capRows := range []int{1, 7, batchRows} {
		rows, _, cv := violationAt(t, cat, q, plan, params, capRows)
		if cv.Actual != math.Floor(27.5)+1 || cv.Exact {
			t.Errorf("cap=%d: violation actual=%v exact=%v, want 28/false", capRows, cv.Actual, cv.Exact)
		}
		if len(rows) != 27 {
			t.Errorf("cap=%d: %d rows delivered before the violation, want 27", capRows, len(rows))
		}
	}
}

// TestBatchCheckLowerViolationParity pins the end-of-stream lower-bound
// check: exact violation at the full cardinality, identical work.
func TestBatchCheckLowerViolationParity(t *testing.T) {
	cat := fixture(t)
	q, plan, params := scanUnderCheck(t, cat, optimizer.Range{Lo: 1000, Hi: math.Inf(1)}, optimizer.ECDC)

	wantRows, wantWork, wantCV := violationAt(t, cat, q, plan, params, 1)
	if !wantCV.Exact || wantCV.Actual != 500 {
		t.Fatalf("one-row batches: EOF violation exact=%v actual=%v", wantCV.Exact, wantCV.Actual)
	}
	for _, capRows := range []int{7, batchRows, 1024} {
		rows, work, cv := violationAt(t, cat, q, plan, params, capRows)
		if !cv.Exact || cv.Actual != 500 {
			t.Errorf("cap=%d: EOF violation exact=%v actual=%v", capRows, cv.Exact, cv.Actual)
		}
		if len(rows) != len(wantRows) {
			t.Errorf("cap=%d: %d rows, want %d", capRows, len(rows), len(wantRows))
		}
		if work != wantWork {
			t.Errorf("cap=%d: work = %v, want %v", capRows, work, wantWork)
		}
	}
}

// TestBatchCheckPassParity runs an in-range CHECK and expects a clean pass
// with identical rows and work at every capacity.
func TestBatchCheckPassParity(t *testing.T) {
	cat := fixture(t)
	q, plan, params := scanUnderCheck(t, cat, optimizer.Range{Lo: 100, Hi: 1000}, optimizer.LC)
	rows := runCaps(t, cat, q, plan, params, 1, "checkPass")
	if len(rows) != 500 {
		t.Errorf("got %d rows, want 500", len(rows))
	}
}

// scriptedNode yields a fixed script of batches followed, once, by an optional
// terminal error: a stand-in child for pinning what an operator does at the
// edge below it.
type scriptedNode struct {
	base
	script [][]schema.Row
	err    error
	out    *Batch
}

func (s *scriptedNode) Open() error  { return nil }
func (s *scriptedNode) Close() error { return nil }
func (s *scriptedNode) NextBatch(int) (*Batch, error) {
	if len(s.script) == 0 {
		err := s.err
		s.err = nil
		return nil, err
	}
	s.out = NewBatch(len(s.script[0]))
	for _, r := range s.script[0] {
		s.out.Append(r)
	}
	s.script = s.script[1:]
	return s.out, nil
}

// joinOverScript builds the emp ⋈ dept hash join and replaces its probe input
// with a script of emp rows, so the join's own handling of its input edge —
// not a scan's — is what a pull observes. Every emp row matches one dept row.
func joinOverScript(t *testing.T, script [][]schema.Row, err error) *hsjnNode {
	t.Helper()
	cat := fixture(t)
	q := joinQuery(t, cat)
	opt := optimizer.New(cat)
	joinConfigs["hash"](opt)
	plan, perr := opt.Optimize(q)
	if perr != nil {
		t.Fatal(perr)
	}
	ex, xerr := NewExecutor(cat, q, nil, opt.Model.Params, &Meter{})
	if xerr != nil {
		t.Fatal(xerr)
	}
	root, berr := ex.Build(plan)
	if berr != nil {
		t.Fatal(berr)
	}
	var join *hsjnNode
	Walk(root, func(n Node) {
		if j, ok := n.(*hsjnNode); ok {
			join = j
		}
	})
	if join == nil || join.in.child.Plan().Op != optimizer.OpTableScan || join.in.child.Plan().Card != 500 {
		t.Fatalf("expected HSJN probing emp:\n%s", optimizer.Explain(plan, q))
	}
	join.in.child = &scriptedNode{base: base{plan: join.in.child.Plan()}, script: script, err: err}
	if oerr := join.Open(); oerr != nil {
		t.Fatal(oerr)
	}
	return join
}

// empRows returns the first n rows of the emp heap.
func empRows(t *testing.T, n int) []schema.Row {
	t.Helper()
	tab, err := fixture(t).Table("emp")
	if err != nil {
		t.Fatal(err)
	}
	var rows []schema.Row
	for it := tab.Heap.Scan(); len(rows) < n; {
		row, _, _ := it.Next()
		rows = append(rows, row)
	}
	return rows
}

// TestBatchEdgePartialBeforeError pins the error-holdback contract of an
// edge: when the child errors after the operator already produced rows from
// what the child delivered, those rows are delivered first — a consumer
// pulling one row at a time would have had them before the error — and the
// error surfaces on the following pull.
func TestBatchEdgePartialBeforeError(t *testing.T) {
	boom := errors.New("boom")
	join := joinOverScript(t, [][]schema.Row{empRows(t, 3)}, boom)

	b, err := join.NextBatch(8)
	if err != nil {
		t.Fatalf("first pull: unexpected error %v (rows must be delivered before the error)", err)
	}
	if b == nil || b.Len() != 3 {
		t.Fatalf("first pull: got %v, want the 3 joined rows", b)
	}
	if _, err := join.NextBatch(8); !errors.Is(err, boom) {
		t.Fatalf("second pull: err = %v, want the held-back child error", err)
	}
	if b, err := join.NextBatch(8); err != nil || b != nil {
		t.Fatalf("third pull: b=%v err=%v, the held error must surface once", b, err)
	}
}

// TestBatchEdgeImmediateError pins the complementary case: an error with no
// rows produced surfaces immediately, with no empty batch in between.
func TestBatchEdgeImmediateError(t *testing.T) {
	boom := errors.New("boom")
	join := joinOverScript(t, nil, boom)
	b, err := join.NextBatch(4)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want immediate child error", err)
	}
	if b != nil {
		t.Errorf("batch = %v, want nil alongside the error", b)
	}
}

// TestBatchEdgeEOSAfterPartial pins end-of-stream behavior: a short final
// batch is followed by (nil, nil), and pulls after that stay (nil, nil).
func TestBatchEdgeEOSAfterPartial(t *testing.T) {
	join := joinOverScript(t, [][]schema.Row{empRows(t, 2)}, nil)
	b, err := join.NextBatch(8)
	if err != nil || b == nil || b.Len() != 2 {
		t.Fatalf("first pull: b=%v err=%v, want 2 rows", b, err)
	}
	for i := 0; i < 2; i++ {
		b, err = join.NextBatch(8)
		if err != nil || b != nil {
			t.Fatalf("pull after EOS: b=%v err=%v, want (nil, nil)", b, err)
		}
	}
	if !join.Stats().Done {
		t.Error("join not marked done at end of stream")
	}
}

// TestPipelinedCompensationAtEveryOrdinal sweeps the ECDC sequence — INSERT
// records what an attempt returned, a CHECK cuts the attempt short, the
// re-run's anti-join suppresses what was returned — over every firing
// ordinal of a small stream and over capacities that put the firing row at
// the start, the middle and the end of a batch. Whatever the cut, the side
// table holds exactly the rows Run returned, the re-run leaves it as it found
// it, and first attempt plus compensated re-run is the full result with no
// duplicate and no loss.
func TestPipelinedCompensationAtEveryOrdinal(t *testing.T) {
	cat := fixture(t)
	b := logical.NewBuilder(cat)
	b.AddTable("emp", "e")
	b.Where(&expr.Cmp{Op: expr.LT, L: b.Col("e", "e_id"), R: &expr.Const{Val: types.NewInt(20)}})
	b.SelectCol("e", "e_id")
	b.SelectCol("e", "e_dept")
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(cat)
	full, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	want := runPlan(t, opt, q, nil)
	if len(want) != 20 {
		t.Fatalf("fixture returns %d rows, want 20", len(want))
	}

	build := func(plan *optimizer.Plan, capRows int) (*Executor, Node) {
		ex, err := NewExecutor(cat, q, nil, opt.Model.Params, &Meter{})
		if err != nil {
			t.Fatal(err)
		}
		ex.batchCap = capRows
		root, err := ex.Build(plan)
		if err != nil {
			t.Fatal(err)
		}
		return ex, root
	}
	for _, capRows := range []int{1, 7, batchRows} {
		for k := 0; k < len(want); k++ {
			// First attempt: the CHECK lets k rows through and fires on the next.
			checked := optimizer.CloneNode(full)
			checked.Children[0] = wrapCheck(full.Children[0], optimizer.Range{Lo: 0, Hi: float64(k)}, optimizer.ECDC)
			side := NewReturnedSet()
			ex, root := build(checked, capRows)
			first, runErr := Run(NewInsertRid(ex, root, side))
			var cv *CheckViolation
			if !errors.As(runErr, &cv) || cv.Actual != float64(k+1) {
				t.Fatalf("cap=%d k=%d: want a violation at count %d, got %v", capRows, k, k+1, runErr)
			}
			if len(first) != k || side.Len() != k {
				t.Fatalf("cap=%d k=%d: Run returned %d rows and the side table recorded %d, want %d of each",
					capRows, k, len(first), side.Len(), k)
			}
			recorded := side.Clone()
			for _, r := range first {
				if !recorded.Remove(r) {
					t.Fatalf("cap=%d k=%d: returned row %v is not in the side table", capRows, k, r)
				}
			}

			// Re-run without the CHECK, compensated against the side table.
			ex2, root2 := build(full, capRows)
			rest, err := Run(NewAntiJoin(ex2, root2, side))
			if err != nil {
				t.Fatal(err)
			}
			if side.Len() != k {
				t.Errorf("cap=%d k=%d: the re-run left %d rows in the side table; the anti-join must only read it", capRows, k, side.Len())
			}
			sameRows(t, append(first, rest...), want, "first attempt + compensated re-run")
		}
	}
}
