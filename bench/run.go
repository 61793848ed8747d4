package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/plancache"
	"repro/internal/pop"
	"repro/internal/sqlparse"
)

// An untraced run sets the system up repeatedly and reports the median as
// setup_s, so one slow load does not decide it: up to maxSetUps times, for
// as long as the set-ups so far took less than setUpBudget together. A
// workload whose set-up alone exceeds the budget sets up once.
const (
	maxSetUps   = 5
	setUpBudget = 4 * time.Second
)

// runConfig is one benchmark run: one workload, one seed, traced or not.
type runConfig struct {
	wl     *workload
	seed   int64
	minDur time.Duration // timed window; it closes at the next cycle boundary
	traced bool
	spans  string // span file, traced runs only
	// maxKinds > 0 keeps only the first kinds of the workload and maxTraced
	// > 0 shortens the twin passes: the shrunken run of the package's test.
	maxKinds, maxTraced int
	log                 io.Writer
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line of a run, the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is a summary with what it was a run of: one line of the -out file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Samples  int    `json:"samples"`
	summary
}

// failures counts failed operations and keeps the first few messages.
type failures struct {
	n    int
	msgs []string
}

// add records one failed operation.
func (f *failures) add(err error) {
	f.n++
	if len(f.msgs) < 5 {
		f.msgs = append(f.msgs, err.Error())
	}
}

// run executes one benchmark run and tears everything down again.
func run(cfg runConfig) (rec record, err error) {
	wl := cfg.wl
	rec = record{Workload: wl.name, Seed: cfg.seed, summary: summary{Metrics: map[string]metric{}}}
	fmt.Fprintf(cfg.log, "== %s, seed %d, traced %v: %s\n", wl.name, cfg.seed, cfg.traced, wl.why)
	var tr *recorder
	if cfg.traced {
		rec.Trace = 1
		tr = &recorder{}
	}

	e, warm, setupSs, err := setUpAndWarm(cfg, tr)
	if e != nil {
		defer func() { err = errors.Join(err, e.tearDown()) }()
	}
	if err != nil {
		return rec, err
	}

	// Correctness gate: the warm-up replies came through the workload's own
	// path; compare them with the POP-off library reference.
	refs, err := computeReferences(e.cat, e.kinds)
	if err != nil {
		return rec, err
	}
	var fails failures
	for i := range warm.samples {
		sm := &warm.samples[i]
		if sm.err != nil {
			fails.add(sm.err)
		} else if err := checkRows(&e.kinds[sm.kind], refs[sm.kind], &sm.reply); err != nil {
			fails.add(err)
		}
	}
	attempted := len(warm.samples)
	warm = pass{}
	for i := range refs {
		refs[i].rows = nil // from here on replies are checked by row count
	}

	// Traced runs: the serial twin passes come before the window, on the
	// cache state the serial warm-up left, so that their counts repeat exactly.
	var tw twin
	if cfg.traced {
		if tw, err = runTwinPasses(cfg, e, tr, refs, &fails); err != nil {
			return rec, err
		}
		attempted += tw.attempted
	}

	// The timed window: both sessions, closed loop, tracing off.
	runtime.GC()
	before := snapshot(e.srv)
	win := runPass(e.kinds, e.sessions, newSequence(e.deck, cfg.seed), cfg.minDur, 0, false)
	winCtr := snapshot(e.srv).minus(before)
	heapMB := heapLiveMB()
	attempted += len(win.samples)
	countFailures(win, refs, e.kinds, &fails)

	var lat []float64
	var work, rows, bytes, waitNS, engineNS float64
	replies := make([]float64, len(e.sessions)) // correct replies per session
	busy := make([]float64, len(e.sessions))    // seconds until its last reply
	for i := range win.samples {
		sm := &win.samples[i]
		busy[sm.session] = max(busy[sm.session], sm.done.Sub(win.start).Seconds())
		if sm.err != nil || sm.rowCount != refs[sm.kind].count {
			continue
		}
		replies[sm.session]++
		lat = append(lat, float64(sm.done.Sub(sm.sent).Nanoseconds())/1e6)
		work += sm.work
		rows += float64(sm.rowCount)
		bytes += float64(sm.bytes)
		waitNS += float64(sm.waitNS)
		engineNS += float64(sm.elapsedNS - sm.waitNS)
	}
	sort.Float64s(lat)
	ok := float64(max(len(lat), 1))
	rec.Samples = len(lat)
	rec.Correct = fails.n == 0
	rec.Attempted = attempted
	rec.Failed = fails.n
	for _, m := range fails.msgs {
		fmt.Fprintln(cfg.log, "FAILED:", m)
	}

	set := func(name string, v float64) { rec.Metrics[name] = metric{Value: v, Unit: unitOf(name)} }
	if !cfg.traced {
		set("setup_s", median(setupSs))
		// Throughput is the sum of the sessions' own completion rates, each
		// over the time until its last reply: the moment one session idles at
		// the closing cycle boundary while the other finishes is not load.
		var qps float64
		for s := range replies {
			if busy[s] > 0 {
				qps += replies[s] / busy[s]
			}
		}
		set("qps", qps)
		set("query_p50_ms", percentile(lat, 0.50))
		set("query_p95_ms", percentile(lat, 0.95))
		set("work_per_query", work/ok)
		set("heap_live_mb", heapMB)
		return rec, nil
	}

	// Per-layer metrics. From the timed window:
	set("server.engine_ms", engineNS/ok/1e6)
	set("server.admit_wait_ms", waitNS/ok/1e6)
	set("server.reply_kb_per_query", bytes/ok/1024)
	set("server.rows_per_reply", rows/ok)
	set("server.dop_clamps", float64(winCtr.sched.DOPClamps))
	set("server.inline_runs", float64(winCtr.sched.InlineRuns))
	set("server.peak_workers", float64(winCtr.sched.PeakWorkers))
	set("server.admission_waits", float64(winCtr.sched.AdmissionWaits))
	set("server.backpressure_rejects", float64(winCtr.sched.Backpressure))
	set("process.allocs_per_query", float64(winCtr.mallocs)/ok)
	set("process.alloc_kb_per_query", float64(winCtr.allocBytes)/ok/1024)
	set("process.gc_pause_ms", float64(winCtr.gcPauseNS)/1e6)
	set("process.cpu_s_per_query", winCtr.cpu.Seconds()/ok)
	set("loadgen.failed_share", float64(fails.n)/float64(attempted))

	// From the traced pass:
	t := &tw.totals
	n := float64(max(t.requests, 1))
	reqNS := float64(max(sum(t.selfNS), 1)) // self times add up to the request spans
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	set("server.pre_exec_ms", ms(t.spanNS["server.pre_exec"])/n)
	set("server.reply_ms", ms(t.selfNS["server.reply"])/n)
	set("server.time_share", float64(t.selfNS["server.pre_exec"]+t.selfNS["server.reply"])/reqNS)
	set("optimizer.time_share", float64(t.selfNS["optimizer.optimize"])/reqNS)
	set("executor.time_share", float64(t.selfNS["executor.exec"])/reqNS)
	set("optimizer.optimize_ms_per_query", ms(t.spanNS["optimizer.optimize"])/n)
	set("optimizer.invocations_per_query", float64(t.optimizes)/n)
	set("optimizer.candidates_per_query", float64(t.candidates)/n)
	set("pop.reopts_per_query", float64(t.reopts)/n)
	set("pop.check_violations", float64(t.violations))
	set("pop.checks_passed", float64(t.passed))
	set("pop.harvest_ms_per_query", ms(t.spanNS["pop.harvest"])/n)
	set("pop.useful_work_share", tw.usefulShare)
	set("executor.exec_ms_per_query", ms(t.spanNS["executor.exec"])/n)
	set("executor.work_units_per_ms", t.workTotal/max(ms(t.spanNS["executor.exec"]), 1e-9))
	set("executor.work_total", t.workTotal)
	set("executor.workers_started", float64(t.workersStarted))
	set("loadgen.decode_ms", ms(t.spanNS["loadgen.decode"])/n)
	set("trace.overhead_pct", tw.overheadPct)
	lookups := float64(max(tw.ctr.hits+tw.ctr.misses, 1))
	set("plancache.hit_ratio", float64(tw.ctr.hits)/lookups)
	set("plancache.misses", float64(tw.ctr.misses))
	set("plancache.guard_rejects", float64(tw.ctr.rejects))
	set("plancache.invalidations", float64(tw.ctr.invals))

	// Measured by calling the layer directly:
	parseUS, lookupUS, err := directCosts(e)
	if err != nil {
		return rec, err
	}
	set("sqlparse.parse_us", parseUS)
	set("plancache.lookup_us", lookupUS)
	set("catalog.load_s", e.loadS)
	set("catalog.rows_loaded", float64(e.rowsLoaded))

	printLayerTable(cfg.log, t)
	return rec, nil
}

// setUpAndWarm sets the system up, repeatedly on an untraced run: load,
// analyze, start, dial, and a warm-up request per kind. On the wire the
// warm-up is serial, so the plan cache meets the bindings in one fixed order
// and starts every run in the same state; the library path keeps no state
// between statements and warms up on both sessions. It returns the last
// environment (also on error, when there is one to tear down), its warm-up
// replies with their rows, and every set-up's duration in seconds.
func setUpAndWarm(cfg runConfig, tr *recorder) (e *env, warm pass, setupSs []float64, err error) {
	setUps := maxSetUps
	if cfg.traced {
		setUps = 1
	}
	for began := time.Now(); len(setupSs) < setUps && (e == nil || time.Since(began) < setUpBudget); {
		if e != nil {
			if err := e.tearDown(); err != nil {
				return nil, warm, nil, err
			}
		}
		t0 := time.Now()
		if e, err = setUp(cfg.wl, tr); err != nil {
			return e, warm, nil, err
		}
		if cfg.maxKinds > 0 && cfg.maxKinds < len(e.kinds) {
			e.shrink(cfg.maxKinds)
		}
		warmers := e.sessions
		if cfg.wl.wire {
			warmers = e.sessions[:1]
		}
		everyKind := make([]int, len(e.kinds))
		for k := range everyKind {
			everyKind[k] = k
		}
		warm = runPass(e.kinds, warmers, inOrder(everyKind), 0, len(everyKind), true)
		setupSs = append(setupSs, time.Since(t0).Seconds())
	}
	return e, warm, setupSs, nil
}

// twin is the outcome of the serial twin passes of a traced run.
type twin struct {
	totals      tracedTotals
	ctr         counters // engine counters over the traced pass
	usefulShare float64  // final-attempt work ÷ all work
	overheadPct float64  // traced pass's wall time against the untraced twin's
	attempted   int
}

// runTwinPasses runs the first requests of the seed's sequence on one
// session twice, recorder off then on, builds the spans of the traced pass
// and writes the span file.
func runTwinPasses(cfg runConfig, e *env, tr *recorder, refs []reference, fails *failures) (twin, error) {
	n := cfg.wl.tracedCycles * len(e.deck)
	if cfg.maxTraced > 0 {
		n = cfg.maxTraced
	}
	plain := runPass(e.kinds, e.sessions[:1], newSequence(e.deck, cfg.seed), 0, n, false)
	before := snapshot(e.srv)
	tr.on.Store(true)
	tracer := newTracer(cfg.wl)
	traced := runPass(e.kinds, e.sessions[:1], newSequence(e.deck, cfg.seed), 0, n, false)
	tr.on.Store(false)
	tw := twin{ctr: snapshot(e.srv).minus(before), attempted: len(plain.samples) + len(traced.samples)}
	countFailures(plain, refs, e.kinds, fails)
	countFailures(traced, refs, e.kinds, fails)

	// The pass was serial: the events up to a reply's arrival are its request's.
	events := tr.take()
	var work, useful float64
	for i := range traced.samples {
		sm := &traced.samples[i]
		cut := sort.Search(len(events), func(j int) bool { return events[j].at.After(sm.done) })
		tracer.add(sm, events[:cut])
		events = events[cut:]
		work += sm.work
		useful += sm.usefulWork
	}
	tw.totals = tracer.totals
	if work > 0 {
		tw.usefulShare = useful / work
	}
	tw.overheadPct = 100 * (traced.wall.Seconds() - plain.wall.Seconds()) / plain.wall.Seconds()
	if err := writeSpans(cfg.spans, tracer.spans); err != nil {
		return tw, fmt.Errorf("span file: %w", err)
	}
	fmt.Fprintf(cfg.log, "spans: %d spans of %d requests written to %s\n", len(tracer.spans), tw.totals.requests, cfg.spans)
	return tw, nil
}

// countFailures counts a pass's failed operations: errors, refusals,
// deadline misses, and replies whose row count is not the reference's.
func countFailures(p pass, refs []reference, kinds []kind, fails *failures) {
	for i := range p.samples {
		sm := &p.samples[i]
		if sm.err != nil {
			fails.add(sm.err)
		} else if want := refs[sm.kind].count; sm.rowCount != want {
			fails.add(fmt.Errorf("%s: %d rows, reference has %d", kinds[sm.kind].name, sm.rowCount, want))
		}
	}
}

// shrink keeps only the first n kinds and the deck slots that use them.
func (e *env) shrink(n int) {
	e.kinds = e.kinds[:n]
	deck := e.deck[:0:0]
	for _, k := range e.deck {
		if k < n {
			deck = append(deck, k)
		}
	}
	e.deck = deck
}

// minus is the counter delta c − b; peak worker occupancy is a high-water
// mark and stays as read.
func (c counters) minus(b counters) counters {
	c.mallocs -= b.mallocs
	c.allocBytes -= b.allocBytes
	c.gcPauseNS -= b.gcPauseNS
	c.cpu -= b.cpu
	c.sched.DOPClamps -= b.sched.DOPClamps
	c.sched.InlineRuns -= b.sched.InlineRuns
	c.sched.AdmissionWaits -= b.sched.AdmissionWaits
	c.sched.Backpressure -= b.sched.Backpressure
	c.hits -= b.hits
	c.misses -= b.misses
	c.rejects -= b.rejects
	c.invals -= b.invals
	return c
}

// sum adds up a map's values.
func sum(m map[string]int64) int64 {
	var s int64
	for _, v := range m {
		s += v
	}
	return s
}

// printLayerTable prints each span name's total, self time and share of the
// request span: the dominance table of the workload.
func printLayerTable(w io.Writer, t *tracedTotals) {
	total := sum(t.selfNS)
	names := make([]string, 0, len(t.selfNS))
	for name := range t.selfNS {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return t.selfNS[names[a]] > t.selfNS[names[b]] })
	fmt.Fprintf(w, "%-22s %12s %12s %7s   (traced pass, %d requests)\n", "span", "total_ms", "self_ms", "share", t.requests)
	for _, name := range names {
		span := t.spanNS[name]
		if name == "request" {
			span = total
		}
		fmt.Fprintf(w, "%-22s %12.3f %12.3f %6.1f%%\n", name, float64(span)/1e6, float64(t.selfNS[name])/1e6,
			100*float64(t.selfNS[name])/float64(max(total, 1)))
	}
}

// directCosts times the two layers no engine event brackets by calling them
// directly, averaged over one cycle of the deck: sqlparse.Parse on each
// statement text, and the plan cache's hit path (Key, NewCardEstimator,
// LookupDetail) on a benchmark-owned cache warmed with the same kinds under
// the server's planning width. Both are zero on the library path, which
// runs neither.
func directCosts(e *env) (parseUS, lookupUS float64, err error) {
	if !e.wl.wire {
		return 0, 0, nil
	}
	const reps = 20
	cache := plancache.New()
	opts := pop.DefaultOptions()
	width := max(runtime.GOMAXPROCS(0), 2) // server.New's default Config.Workers
	opts.Configure = func(o *optimizer.Optimizer) { o.Model.Params.Workers = width }
	perKindParse := make([]float64, len(e.kinds))
	perKindLookup := make([]float64, len(e.kinds))
	for i := range e.kinds {
		k := &e.kinds[i]
		params := k.params()
		if _, _, err := plancache.NewRunner(cache, e.cat, opts).Run(k.query, params); err != nil {
			return 0, 0, fmt.Errorf("warming lookup cache with %s: %w", k.name, err)
		}
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			if _, err := sqlparse.Parse(e.cat, k.sql); err != nil {
				return 0, 0, err
			}
		}
		perKindParse[i] = float64(time.Since(t0).Nanoseconds()) / reps / 1e3
		t0 = time.Now()
		for r := 0; r < reps; r++ {
			entry := cache.Entry(plancache.Key(k.query))
			ce, err := optimizer.NewCardEstimator(e.cat, logical.BindParams(k.query, params), entry.Feedback)
			if err != nil {
				return 0, 0, err
			}
			entry.LookupDetail(ce)
		}
		perKindLookup[i] = float64(time.Since(t0).Nanoseconds()) / reps / 1e3
	}
	for _, k := range e.deck {
		parseUS += perKindParse[k] / float64(len(e.deck))
		lookupUS += perKindLookup[k] / float64(len(e.deck))
	}
	return parseUS, lookupUS, nil
}
