package harness

// The serving study measures the popserver stack end to end
// (BENCH_server.json). Phase one is the work-identity certificate: with the
// plan cache disabled and parameter-bound estimation on (no mid-stream
// checkpoint violations, so simulated work is independent of the effective
// DOP), every binding executed through the server — admission control,
// worker-pool clamping and the JSON wire round-trip included — must report
// work bit-identical to a single-session library execution. Phase two is the
// load matrix: open-loop (fixed arrival schedule) and closed-loop (think
// time) client fleets at several sizes drive a cache-enabled server with
// zipfian-skewed bindings, reporting latency percentiles, throughput, cache
// hit rate and the scheduler's clamp/wait counters.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/pop"
	"repro/internal/server"
	"repro/internal/sqlparse"
	"repro/internal/types"
)

// serverStudySQL is the wire form of the study's workload: the
// parameterized TPC-H join also used by the plan-cache study,
// expressed in SQL so it exercises the server's parse path.
const serverStudySQL = `SELECT c_name, SUM(l_extendedprice) AS revenue
	FROM customer, orders, lineitem
	WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_quantity <= ?
	GROUP BY c_name`

// WorkIdentity is the phase-one certificate.
type WorkIdentity struct {
	// Checked counts violation-free bindings whose server and library work
	// totals were compared; Identical counts the exact matches.
	Checked   int `json:"checked"`
	Identical int `json:"identical"`
	// SkippedReopt counts bindings excluded because either side
	// re-optimized (work through a mid-stream violation is not
	// DOP-comparable; see the pop gate tests).
	SkippedReopt int `json:"skipped_reopt"`
	// Clamps is the server's DOP-clamp count during the phase — evidence
	// the identity held through constrained grants, not an idle pool.
	Clamps int64 `json:"dop_clamps"`
}

// ServerRun is one cell of the load matrix.
type ServerRun struct {
	Mode     string `json:"mode"` // "open" or "closed"
	Clients  int    `json:"clients"`
	Requests int    `json:"requests"`
	Errors   int    `json:"errors"`

	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	QPS   float64 `json:"qps"`

	CacheHitRate float64 `json:"cache_hit_rate"`
	Reopts       int     `json:"reopts"`

	WorkerBudget   int   `json:"worker_budget"`
	PeakWorkers    int64 `json:"peak_workers"`
	DOPClamps      int64 `json:"dop_clamps"`
	InlineRuns     int64 `json:"inline_runs"`
	AdmissionWaits int64 `json:"admission_waits"`
	Backpressure   int64 `json:"backpressure"`
}

// ServerStudyResult is the study output (BENCH_server.json).
type ServerStudyResult struct {
	Query        string       `json:"query"`
	Bindings     int          `json:"bindings"`
	WorkerBudget int          `json:"worker_budget"`
	WorkIdentity WorkIdentity `json:"work_identity"`
	Runs         []ServerRun  `json:"runs"`
}

// serverWorkIdentity runs phase one: serial requests against a cache-less,
// estimate-bound server under a deliberately tight worker budget, compared
// binding by binding against the library.
func serverWorkIdentity(cat *catalog.Catalog) (id WorkIdentity, err error) {
	srv := server.New(cat, server.Config{
		Workers:      4,
		DisableCache: true,
		Sched:        server.SchedConfig{WorkerBudget: 2, RunSlots: 4},
		Options:      func(o *pop.Options) { o.BindParamEstimates = true },
	})
	if err := srv.Start(); err != nil {
		return id, err
	}
	defer shutdownServer(srv)
	c, err := server.Dial(srv.Addr())
	if err != nil {
		return id, err
	}
	defer func() {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	q, err := sqlparse.Parse(cat, serverStudySQL)
	if err != nil {
		return id, err
	}
	for _, qty := range planCacheBindings() {
		opts := pop.DefaultOptions()
		opts.Configure = func(o *optimizer.Optimizer) { o.Model.Params.Workers = 4 }
		opts.BindParamEstimates = true
		lib, err := pop.NewRunner(cat, opts).Run(q, []types.Datum{types.NewFloat(qty)})
		if err != nil {
			return id, err
		}
		resp, err := c.Query(serverStudySQL, server.Float(qty))
		if err != nil {
			return id, err
		}
		if !resp.OK {
			return id, fmt.Errorf("identity phase qty=%v: %s (%s)", qty, resp.Error, resp.Code)
		}
		if lib.Reopts > 0 || resp.Reopts > 0 {
			id.SkippedReopt++
			continue
		}
		id.Checked++
		if resp.Work == lib.Work && resp.RowCount == len(lib.Rows) {
			id.Identical++
		}
	}
	id.Clamps = srv.Metrics().DOPClamps
	return id, err
}

// serverLoadRun runs one load-matrix cell against a fresh cache-enabled
// server.
func serverLoadRun(cat *catalog.Catalog, mode string, clients, perClient, budget int) (ServerRun, error) {
	run := ServerRun{Mode: mode, Clients: clients, WorkerBudget: budget}
	srv := server.New(cat, server.Config{
		Workers: 4,
		Sched:   server.SchedConfig{WorkerBudget: budget, SessionQueue: 8},
	})
	if err := srv.Start(); err != nil {
		return run, err
	}
	defer shutdownServer(srv)

	bindings := planCacheBindings()
	type reqResult struct {
		latencyNS int64
		hit       bool
		reopts    int
		err       error
	}
	results := make([][]reqResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			res := make([]reqResult, 0, perClient)
			defer func() { results[ci] = res }()
			c, err := server.Dial(srv.Addr())
			if err != nil {
				res = append(res, reqResult{err: err})
				return
			}
			defer func() {
				if cerr := c.Close(); cerr != nil {
					res = append(res, reqResult{err: cerr})
				}
			}()
			// Deterministic zipfian skew over the binding set: a few hot
			// bindings dominate (plan-cache hits), a long tail of cold ones
			// keeps misses and guard evaluations in the mix.
			rng := rand.New(rand.NewSource(int64(1000*clients + ci)))
			zipf := rand.NewZipf(rng, 1.3, 1.0, uint64(len(bindings)-1))
			for i := 0; i < perClient; i++ {
				qty := bindings[zipf.Uint64()]
				t0 := time.Now()
				resp, err := c.Query(serverStudySQL, server.Float(qty))
				r := reqResult{latencyNS: time.Since(t0).Nanoseconds()}
				if err != nil {
					r.err = err
					res = append(res, r)
					return
				}
				if !resp.OK {
					r.err = fmt.Errorf("%s: %s", resp.Code, resp.Error)
				} else {
					r.hit = resp.CacheHit
					r.reopts = resp.Reopts
				}
				res = append(res, r)
				switch mode {
				case "closed":
					// Think time: the client pauses between requests, so
					// offered load tracks completion rate.
					time.Sleep(200 * time.Microsecond)
				case "open":
					// Fixed arrival schedule: request i+1 is due at its slot
					// regardless of how long request i took (modulo the
					// single connection); sleep only the remaining budget.
					due := t0.Add(500 * time.Microsecond)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	wall := time.Since(start)

	var lat []int64
	hits := 0
	for _, res := range results {
		for _, r := range res {
			if r.err != nil {
				run.Errors++
				continue
			}
			run.Requests++
			lat = append(lat, r.latencyNS)
			if r.hit {
				hits++
			}
			run.Reopts += r.reopts
		}
	}
	if run.Requests > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		run.P50MS = float64(lat[len(lat)/2]) / 1e6
		run.P99MS = float64(lat[len(lat)*99/100]) / 1e6
		run.QPS = float64(run.Requests) / wall.Seconds()
		run.CacheHitRate = float64(hits) / float64(run.Requests)
	}
	st := srv.Scheduler().Stats()
	run.PeakWorkers = st.PeakWorkers
	run.DOPClamps = st.DOPClamps
	run.InlineRuns = st.InlineRuns
	run.AdmissionWaits = st.AdmissionWaits
	run.Backpressure = st.Backpressure
	return run, nil
}

// shutdownServer drains a study server with a generous deadline.
func shutdownServer(srv *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Printf("server study: shutdown: %v\n", err)
	}
}

// ServerStudy runs both phases. Smoke mode shrinks the load matrix for CI.
func ServerStudy(cat *catalog.Catalog, smoke bool) (*ServerStudyResult, error) {
	// Floor the budget at 4 so the matrix exercises real intra-query
	// parallelism arbitration even on small CI hosts (exchange workers
	// simulate work; they are not CPU-bound).
	budget := runtime.GOMAXPROCS(0)
	if budget < 4 {
		budget = 4
	}
	res := &ServerStudyResult{
		Query:        "Q10-join(l_quantity <= ?0) over SQL",
		Bindings:     len(planCacheBindings()),
		WorkerBudget: budget,
	}
	id, err := serverWorkIdentity(cat)
	if err != nil {
		return nil, err
	}
	res.WorkIdentity = id

	clientCounts := []int{4, 16}
	perClient := 40
	if smoke {
		clientCounts = []int{2}
		perClient = 8
	}
	for _, clients := range clientCounts {
		for _, mode := range []string{"open", "closed"} {
			run, err := serverLoadRun(cat, mode, clients, perClient, budget)
			if err != nil {
				return nil, err
			}
			res.Runs = append(res.Runs, run)
		}
	}
	return res, nil
}

// WriteServerJSON renders the study as indented JSON.
func WriteServerJSON(w io.Writer, r *ServerStudyResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteServer renders the study as a human-readable table.
func WriteServer(w io.Writer, r *ServerStudyResult) {
	fmt.Fprintf(w, "Serving study: %s, %d bindings, worker budget %d\n",
		r.Query, r.Bindings, r.WorkerBudget)
	fmt.Fprintf(w, "work identity: %d/%d bindings bit-identical (%d skipped for reopts, %d clamps during phase)\n",
		r.WorkIdentity.Identical, r.WorkIdentity.Checked,
		r.WorkIdentity.SkippedReopt, r.WorkIdentity.Clamps)
	fmt.Fprintf(w, "%-7s %8s %6s %5s %9s %9s %9s %8s %7s %7s %7s %7s\n",
		"mode", "clients", "reqs", "errs", "p50_ms", "p99_ms", "qps", "hitrate", "peak", "clamps", "waits", "reopts")
	for _, run := range r.Runs {
		fmt.Fprintf(w, "%-7s %8d %6d %5d %9.2f %9.2f %9.0f %8.3f %7d %7d %7d %7d\n",
			run.Mode, run.Clients, run.Requests, run.Errors,
			run.P50MS, run.P99MS, run.QPS, run.CacheHitRate,
			run.PeakWorkers, run.DOPClamps, run.AdmissionWaits, run.Reopts)
	}
}
