package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/pop"
	"repro/internal/sqlparse"
	"repro/internal/tpch"
	"repro/internal/trace"
	"repro/internal/types"
)

// q10SQL is the parameterized serving workload: a three-way TPC-H join with
// a quantity predicate whose selectivity the binding controls.
const q10SQL = tpch.Q10SQL

// tpchCat loads a small TPC-H catalog.
func tpchCat(t testing.TB, sf float64) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	if err := tpch.Load(cat, tpch.Config{ScaleFactor: sf, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	return cat
}

// startServer builds and starts a server, registering shutdown cleanup.
func startServer(t *testing.T, cat *catalog.Catalog, cfg Config) *Server {
	t.Helper()
	s := New(cat, cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// forceViolation is the Config.Options knob that makes every execution's
// first checkpoint fail, guaranteeing a genuine re-optimization per query.
func forceViolation(o *pop.Options) {
	o.Policy.FailCheckIDs = map[int]bool{0: true}
}

// TestServer32ConcurrentSessions is the serving-side concurrency pin: 32 TCP
// sessions run the same parameterized join through 8 run slots, every
// execution is forced through a re-optimization, every session gets the
// right answer, and every run slot is released.
func TestServer32ConcurrentSessions(t *testing.T) {
	cat := tpchCat(t, 0.002)
	srv := startServer(t, cat, Config{
		Sched:   SchedConfig{RunSlots: 8, SessionQueue: 4},
		Options: forceViolation,
	})

	// Library baseline for the row count (POP preserves results across
	// re-optimizations, so every session must match).
	q, err := sqlparse.Parse(cat, q10SQL)
	if err != nil {
		t.Fatal(err)
	}
	base, err := pop.NewRunner(cat, pop.DefaultOptions()).Run(q, []types.Datum{types.NewFloat(50)})
	if err != nil {
		t.Fatal(err)
	}
	want := len(base.Rows)

	const sessions = 32
	resps := make([]Response, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs[i] = err
				return
			}
			defer func() { errs[i] = c.Close() }()
			resps[i], errs[i] = c.Query(q10SQL, Float(50))
		}(i)
	}
	wg.Wait()

	reopts := 0
	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if !resps[i].OK {
			t.Fatalf("session %d: %s (%s)", i, resps[i].Error, resps[i].Code)
		}
		if resps[i].RowCount != want {
			t.Fatalf("session %d returned %d rows, baseline %d", i, resps[i].RowCount, want)
		}
		reopts += resps[i].Reopts
	}
	if reopts == 0 {
		t.Error("no session re-optimized; the workload must exercise POP under concurrency")
	}

	st := srv.Scheduler().Stats()
	if st.Running != 0 || st.Queued != 0 {
		t.Errorf("running=%d queued=%d after all sessions", st.Running, st.Queued)
	}
	m := srv.Metrics()
	if m.Queries != sessions {
		t.Errorf("metrics counted %d queries, want %d", m.Queries, sessions)
	}
	if m.Reoptimizations == 0 {
		t.Error("metrics saw no re-optimizations")
	}
}

// TestServerWorkIdentity pins the serving-side work contract end to end:
// with the plan cache disabled, a statement executed through the server —
// admission control and the JSON wire round-trip included — reports
// simulated work, re-optimizations and a row multiset identical to a
// single-session library execution of the same binding, including bindings
// whose checkpoints fire mid-stream.
func TestServerWorkIdentity(t *testing.T) {
	cat := tpchCat(t, 0.002)
	srv := startServer(t, cat, Config{DisableCache: true, Sched: SchedConfig{RunSlots: 4}})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	}()

	q, err := sqlparse.Parse(cat, q10SQL)
	if err != nil {
		t.Fatal(err)
	}
	reoptimized := 0
	for _, qty := range []float64{2.5, 10, 25, 50} {
		lib, err := pop.NewRunner(cat, pop.DefaultOptions()).Run(q, []types.Datum{types.NewFloat(qty)})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Query(q10SQL, Float(qty))
		if err != nil {
			t.Fatal(err)
		}
		if !resp.OK {
			t.Fatalf("qty=%v: %s (%s)", qty, resp.Error, resp.Code)
		}
		if resp.Work != lib.Work || resp.Reopts != lib.Reopts {
			t.Errorf("qty=%v: server work %v reopts %d, library work %v reopts %d",
				qty, resp.Work, resp.Reopts, lib.Work, lib.Reopts)
		}
		got, want := slices.Clone(resp.Rows), make([]string, len(lib.Rows))
		for i, r := range lib.Rows {
			want[i] = r.String()
		}
		slices.Sort(got)
		slices.Sort(want)
		if resp.RowCount != len(lib.Rows) || !slices.Equal(got, want) {
			t.Errorf("qty=%v: server rows (%d) differ from the library's (%d)", qty, resp.RowCount, len(lib.Rows))
		}
		if lib.Reopts > 0 {
			reoptimized++
		}
	}
	if reoptimized == 0 {
		t.Fatal("no binding re-optimized; the mid-stream violation case went unchecked")
	}
}

// blockingOptions returns a Config.Options hook whose executions block
// inside the optimizer until release is closed, plus a channel that closes
// when the first execution reaches it — a deterministic way to hold a query
// in flight.
func blockingOptions(release <-chan struct{}) (func(*pop.Options), <-chan struct{}) {
	inFlight := make(chan struct{})
	var once sync.Once
	return func(o *pop.Options) {
		inner := o.Configure
		o.Configure = func(opt *optimizer.Optimizer) {
			if inner != nil {
				inner(opt)
			}
			once.Do(func() { close(inFlight) })
			<-release
		}
	}, inFlight
}

// TestServerGracefulShutdown pins the drain protocol over the wire: an
// in-flight query completes, a query arriving during the drain is rejected
// with the typed "draining" code, Shutdown returns cleanly, and the trace
// sink is flushed.
func TestServerGracefulShutdown(t *testing.T) {
	cat := tpchCat(t, 0.002)
	release := make(chan struct{})
	hook, inFlight := blockingOptions(release)
	var buf bytes.Buffer
	s := New(cat, Config{
		Sched:      SchedConfig{RunSlots: 2},
		Options:    hook,
		TraceJSONL: trace.NewJSONL(&buf),
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	cA, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cB, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Dial returns once the kernel queues the connection, and the server
	// closes a connection it accepts after shutdown began: a ping reply
	// proves cB is being served before the drain starts.
	if err := cB.Ping(); err != nil {
		t.Fatal(err)
	}

	inFlightResp := make(chan Response, 1)
	go func() {
		resp, err := cA.Query(q10SQL, Float(25))
		if err != nil {
			t.Errorf("in-flight query: %v", err)
		}
		inFlightResp <- resp
	}()
	<-inFlight

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !s.Scheduler().Stats().Draining {
		if time.Now().After(deadline) {
			t.Fatal("scheduler never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	// A query arriving mid-drain gets the typed rejection.
	resp, err := cB.Query(q10SQL, Float(25))
	if err != nil {
		t.Fatalf("mid-drain query: %v", err)
	}
	if resp.OK || resp.Code != CodeDraining {
		t.Fatalf("mid-drain query: ok=%v code=%q, want draining rejection", resp.OK, resp.Code)
	}

	// Let the in-flight query finish; it must complete normally.
	close(release)
	got := <-inFlightResp
	if !got.OK {
		t.Fatalf("in-flight query failed during drain: %s (%s)", got.Error, got.Code)
	}
	if got.RowCount == 0 {
		t.Error("in-flight query returned no rows")
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if buf.Len() == 0 {
		t.Error("trace sink not flushed on shutdown")
	}
	if err := cA.Close(); err != nil {
		t.Logf("client A close after server shutdown: %v", err)
	}
	if err := cB.Close(); err != nil {
		t.Logf("client B close after server shutdown: %v", err)
	}
}

// TestServerBackpressure pins the per-session queue allowance over the
// wire: with one run slot held and a one-deep session queue, a session's
// third concurrent query bounces with the typed "backpressure" code.
func TestServerBackpressure(t *testing.T) {
	cat := tpchCat(t, 0.002)
	release := make(chan struct{})
	hook, inFlight := blockingOptions(release)
	srv := startServer(t, cat, Config{
		Sched:   SchedConfig{RunSlots: 1, SessionQueue: 1},
		Options: hook,
	})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	}()

	var wg sync.WaitGroup
	results := make([]Response, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Query(q10SQL, Float(25))
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			results[i] = resp
		}(i)
		if i == 0 {
			<-inFlight
		} else {
			deadline := time.Now().Add(5 * time.Second)
			for srv.Scheduler().Stats().Queued != 1 {
				if time.Now().After(deadline) {
					t.Fatal("second query never queued")
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	resp, err := c.Query(q10SQL, Float(25))
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != CodeBackpressure {
		t.Fatalf("third query: ok=%v code=%q, want backpressure rejection", resp.OK, resp.Code)
	}

	close(release)
	wg.Wait()
	for i, r := range results {
		if !r.OK {
			t.Errorf("query %d failed: %s (%s)", i, r.Error, r.Code)
		}
	}
	if got := srv.Scheduler().Stats().Backpressure; got != 1 {
		t.Errorf("backpressure count %d, want 1", got)
	}
}

// TestServerHTTP smoke-tests the HTTP endpoint: POST /query executes, GET
// /metrics returns both engine and scheduler counters, and /healthz flips
// to 503 once draining.
func TestServerHTTP(t *testing.T) {
	cat := tpchCat(t, 0.002)
	s := New(cat, Config{HTTPAddr: "127.0.0.1:0"})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.HTTPAddr()

	qty := 25.0
	body, err := json.Marshal(Request{Op: OpQuery, SQL: q10SQL, Params: []ParamValue{{Float: &qty}}})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	err = json.NewDecoder(hr.Body).Decode(&resp)
	if cerr := hr.Body.Close(); cerr != nil {
		t.Error(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusOK || !resp.OK {
		t.Fatalf("POST /query: status=%d ok=%v err=%s", hr.StatusCode, resp.OK, resp.Error)
	}
	if resp.RowCount == 0 || len(resp.Rows) == 0 {
		t.Error("POST /query returned no rows")
	}

	mr, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m httpMetrics
	err = json.NewDecoder(mr.Body).Decode(&m)
	if cerr := mr.Body.Close(); cerr != nil {
		t.Error(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if m.Engine.Queries != 1 {
		t.Errorf("GET /metrics: %d queries, want 1", m.Engine.Queries)
	}
	if m.Sched.RunSlots == 0 {
		t.Error("GET /metrics: scheduler stats missing")
	}

	hz, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if cerr := hz.Body.Close(); cerr != nil {
		t.Error(cerr)
	}
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while serving: %d", hz.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestClientLargeReply: a reply line longer than any fixed read buffer (here
// about 1.7 MB) reaches the caller whole, and the connection keeps serving.
func TestClientLargeReply(t *testing.T) {
	cat := tpchCat(t, 0.005)
	srv := startServer(t, cat, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	}()

	lineitem, err := cat.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Query("SELECT l_orderkey, l_partkey, l_suppkey, l_quantity, l_extendedprice, l_discount, " +
		"l_returnflag, l_shipdate, l_commitdate, l_receiptdate, l_shipmode FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	want := int(lineitem.RowCount())
	if !resp.OK || resp.RowCount != want || len(resp.Rows) != want {
		t.Fatalf("lineitem: ok=%v row_count=%d rows=%d, want %d: %s", resp.OK, resp.RowCount, len(resp.Rows), want, resp.Error)
	}
	resp, err = c.Query("SELECT COUNT(*) AS n FROM nation")
	if err != nil {
		t.Fatalf("query after the large reply: %v", err)
	}
	if !resp.OK || len(resp.Rows) != 1 || resp.Rows[0] != "[25]" {
		t.Errorf("nation count after the large reply: ok=%v rows=%v: %s", resp.OK, resp.Rows, resp.Error)
	}
}

// TestServerParseErrors verifies malformed SQL and unknown ops map to the
// "parse" code without killing the connection.
func TestServerParseErrors(t *testing.T) {
	cat := tpchCat(t, 0.002)
	srv := startServer(t, cat, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	}()

	resp, err := c.Query("SELECT nope FROM nowhere")
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != CodeParse {
		t.Errorf("bad SQL: ok=%v code=%q, want parse error", resp.OK, resp.Code)
	}
	if _, err := c.Do(Request{Op: "frobnicate"}); err != nil {
		t.Fatal(err)
	}
	// The connection survives: a good query still works.
	resp, err = c.Query("SELECT COUNT(*) AS n FROM nation")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.RowCount != 1 {
		t.Errorf("recovery query: ok=%v rows=%d: %s", resp.OK, resp.RowCount, resp.Error)
	}
	if len(resp.Rows) != 1 || !strings.Contains(fmt.Sprint(resp.Rows[0]), "25") {
		t.Errorf("nation count row = %v, want 25", resp.Rows)
	}
}

// TestServerNonBooleanCondition: a non-boolean operand of AND, OR or NOT, or
// a bare non-boolean WHERE term, is an exec error reply; the server keeps
// running and the same connection then gets a valid query's rows.
func TestServerNonBooleanCondition(t *testing.T) {
	cat := tpchCat(t, 0.002)
	srv := startServer(t, cat, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	}()
	for _, where := range []string{"n_nationkey AND n_regionkey = 1", "NOT n_nationkey",
		"n_nationkey OR n_regionkey = 1", "n_nationkey"} {
		resp, err := c.Query("SELECT n_name FROM nation WHERE " + where)
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK || resp.Code != CodeExec || !strings.Contains(resp.Error, "not BOOLEAN") {
			t.Errorf("WHERE %s: ok=%v code=%q error=%q, want a non-boolean exec error", where, resp.OK, resp.Code, resp.Error)
		}
	}
	resp, err := c.Query("SELECT COUNT(*) AS n FROM nation WHERE n_regionkey = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Rows) != 1 || fmt.Sprint(resp.Rows[0]) != "[5]" {
		t.Errorf("recovery query: ok=%v rows=%v: %s", resp.OK, resp.Rows, resp.Error)
	}
}

// TestServerSumOfString: SUM or AVG of a string column is an exec error
// reply, not a panic that takes the server down; the same connection then
// answers Q10.
func TestServerSumOfString(t *testing.T) {
	cat := tpchCat(t, 0.002)
	srv := startServer(t, cat, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	}()
	for _, agg := range []string{"SUM", "AVG"} {
		resp, err := c.Query("SELECT " + agg + "(c_name) AS s FROM customer")
		if err != nil {
			t.Fatal(err)
		}
		want := agg + " of VARCHAR, not a number"
		if resp.OK || resp.Code != CodeExec || !strings.Contains(resp.Error, want) {
			t.Errorf("%s(c_name): ok=%v code=%q error=%q, want an exec error naming %q", agg, resp.OK, resp.Code, resp.Error, want)
		}
	}
	resp, err := c.Query(q10SQL, Float(25))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.RowCount == 0 {
		t.Errorf("Q10 after the error: ok=%v rows=%d: %s", resp.OK, resp.RowCount, resp.Error)
	}
}
