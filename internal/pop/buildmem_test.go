package pop

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dmv"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/tpch"
	"repro/internal/types"
)

// Hash joins take their build memory from a pool in Open and return it in
// Close (executor.buildMem). These tests hold that no recycled memory reaches
// a result: not after the statement that built it ends, and not when other
// sessions build in it concurrently.

var (
	dmvOnce sync.Once
	dmvDB   *catalog.Catalog
	dmvQS   []dmv.QueryInfo
	dmvErr  error
)

// dmvFixture is the DMV database at a small scale with its 39 queries.
func dmvFixture(t testing.TB) (*catalog.Catalog, []dmv.QueryInfo) {
	t.Helper()
	dmvOnce.Do(func() {
		dmvDB = catalog.New()
		if dmvErr = dmv.Load(dmvDB, dmv.Config{Scale: 0.05, Seed: 17}); dmvErr == nil {
			dmvQS, dmvErr = dmv.Queries(dmvDB)
		}
	})
	if dmvErr != nil {
		t.Fatal(dmvErr)
	}
	return dmvDB, dmvQS
}

// buildsOnJoin reports whether an attempt of res ran a hash join that builds
// on another join's output, whose ephemeral rows the build copies into
// pooled chunks.
func buildsOnJoin(res *Result) bool {
	found := false
	for _, a := range res.Attempts {
		a.Plan.Walk(func(n *optimizer.Plan) {
			if n.Op != optimizer.OpHSJN {
				return
			}
			n.Children[1].Walk(func(c *optimizer.Plan) {
				found = found || c.Op == optimizer.OpHSJN || c.Op == optimizer.OpNLJN || c.Op == optimizer.OpMGJN
			})
		})
	}
	return found
}

// reuseRun is one statement of the reuse tests.
type reuseRun struct {
	name   string
	cat    *catalog.Catalog
	q      *logical.Query
	params []types.Datum
}

// reuseRuns is Q10 at binding 25, whose second attempt builds a hash join on
// a join, Q18, and the first four DMV queries that build a hash join on a
// join: all of them build in pooled memory.
func reuseRuns(t *testing.T) []reuseRun {
	t.Helper()
	q10, _ := q10Sweep(t)
	q18, err := tpch.Q18(tpchFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	runs := []reuseRun{
		{"Q10@25", tpchFixture(t), q10, []types.Datum{types.NewFloat(25)}},
		{"Q18", tpchFixture(t), q18, nil},
	}
	cat, qs := dmvFixture(t)
	for _, qi := range qs {
		res, err := NewRunner(cat, DefaultOptions()).Run(qi.Query, nil)
		if err != nil {
			t.Fatalf("%s: %v", qi.Name, err)
		}
		if buildsOnJoin(res) {
			runs = append(runs, reuseRun{qi.Name, cat, qi.Query, nil})
			if len(runs) == 6 {
				break
			}
		}
	}
	if len(runs) < 6 {
		t.Fatalf("%d DMV queries build a hash join on a join, want 4", len(runs)-2)
	}
	return runs
}

// rowsText renders rows one per line.
func rowsText(rows []schema.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestPooledBuildKeepsResults runs the reuse statements one after another
// and snapshots each result's text when its run returns. Every later run
// builds in the memory the earlier ones returned to the pool, so a result
// row that aliased build memory would read cleared or overwritten datums;
// every result must still render as its snapshot at the end.
func TestPooledBuildKeepsResults(t *testing.T) {
	runs := reuseRuns(t)
	rows := make([][]schema.Row, len(runs))
	snaps := make([]string, len(runs))
	for i, r := range runs {
		res, err := NewRunner(r.cat, DefaultOptions()).Run(r.q, r.params)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if len(res.Rows) == 0 || i == 0 && !buildsOnJoin(res) {
			t.Fatalf("%s returns no rows or builds no hash join on a join; the test is vacuous", r.name)
		}
		rows[i], snaps[i] = res.Rows, rowsText(res.Rows)
	}
	for i, r := range runs {
		if got := rowsText(rows[i]); got != snaps[i] {
			t.Errorf("%s: result changed after later runs\nwas:\n%s\nnow:\n%s", r.name, snaps[i], got)
		}
	}
}

// TestConcurrentPooledBuilds runs 8 sessions at once, each with its own
// runners over the shared catalogs: the Q10 sweep of the serving workload's
// bindings through a plan cache, then the reuse statements. Each session's
// results and work must equal a serial run's, bit for bit.
func TestConcurrentPooledBuilds(t *testing.T) {
	q10, bindings := q10Sweep(t)
	runs := reuseRuns(t)
	type outcome struct {
		text string
		work uint64
	}
	session := func() ([]outcome, error) {
		cached := NewRunner(tpchFixture(t), DefaultOptions())
		cached.Cache = NewCache()
		var out []outcome
		for _, params := range bindings {
			res, err := cached.Run(q10, params)
			if err != nil {
				return nil, err
			}
			out = append(out, outcome{rowsText(res.Rows), math.Float64bits(res.Work)})
		}
		for _, r := range runs {
			res, err := NewRunner(r.cat, DefaultOptions()).Run(r.q, r.params)
			if err != nil {
				return nil, err
			}
			out = append(out, outcome{rowsText(res.Rows), math.Float64bits(res.Work)})
		}
		return out, nil
	}
	want, err := session()
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 8
	got := make([][]outcome, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			got[s], errs[s] = session()
		}(s)
	}
	wg.Wait()
	for s := 0; s < sessions; s++ {
		if errs[s] != nil {
			t.Fatalf("session %d: %v", s, errs[s])
		}
		for i := range want {
			name := "Q10 sweep"
			if i >= len(bindings) {
				name = runs[i-len(bindings)].name
			}
			if got[s][i] != want[i] {
				t.Errorf("session %d, run %d (%s): result or work differs from the serial run", s, i, name)
			}
		}
	}
}
