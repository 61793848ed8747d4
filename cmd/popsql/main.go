// Command popsql is an interactive shell over the engine: it loads one of
// the bundled workload databases and runs SQL with progressive optimization
// on or off, showing plans, re-optimizations and simulated cost.
//
// Usage:
//
//	popsql -db tpch -sf 0.005
//	popsql -db dmv -scale 0.5
//	popsql -db csv -dir ./data     # load every *.csv in a directory
//	popsql -connect 127.0.0.1:7070 # client mode: run SQL on a popserver
//
// In -connect mode the shell is a thin network client: SQL executes on the
// server (shared plan cache, admission-controlled scheduling), \metrics shows
// the server's counters, and typed rejections (draining, backpressure)
// surface as errors.
//
// Shell commands:
//
//	\pop on|off     toggle progressive optimization
//	\planner [NAME] show or set the planner strategy (dp-pop, greedy-pop,
//	                greedy-only, reopt-unguarded); works in -connect mode too
//	\explain SQL    show the plan (with validity ranges) without running
//	\analyze SQL    EXPLAIN ANALYZE: run with POP and show, per attempt,
//	                each operator's estimated vs actual rows, work and DOP
//	\metrics        cumulative session counters (queries, reopts, checkpoint
//	                outcomes, plan-cache verdicts, worker utilization)
//	\trace FILE     start appending JSONL trace events to FILE
//	\trace off      stop tracing and flush
//	\tables         list tables
//	\q              quit
//	SQL;            execute
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/catalog"
	"repro/internal/dmv"
	"repro/internal/executor"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/pop"
	"repro/internal/server"
	"repro/internal/sqlparse"
	"repro/internal/tpch"
	"repro/internal/trace"
)

// session is the shell's mutable state: the catalog, the POP toggle, one
// plan cache, a metrics registry fed by every traced execution, and the
// optional JSONL trace sink.
type session struct {
	cat   *catalog.Catalog
	popOn bool
	cache *pop.Cache
	reg   *metrics.Registry

	// planner is the \planner-selected strategy; nil is the engine default
	// (dp-pop).
	planner pop.Strategy

	traceFile *os.File
	jsonl     *trace.JSONL
}

// recorder composes the session's trace sinks: the metrics registry always
// listens; the JSONL file joins when \trace armed one. The disarmed sink must
// not be passed as a typed-nil *JSONL — inside the Recorder interface it
// would look non-nil to Multi and crash on first use.
func (s *session) recorder() trace.Recorder {
	if s.jsonl != nil {
		return trace.Multi(s.reg, s.jsonl)
	}
	return s.reg
}

func main() {
	var (
		db      = flag.String("db", "tpch", "database to load: tpch, dmv or csv")
		sf      = flag.Float64("sf", 0.005, "TPC-H scale factor")
		scale   = flag.Float64("scale", 0.5, "DMV scale")
		dir     = flag.String("dir", ".", "directory of *.csv files for -db csv")
		connect = flag.String("connect", "", "connect to a popserver at this TCP address instead of loading a database")
	)
	flag.Parse()

	if *connect != "" {
		connectREPL(*connect)
		return
	}

	cat := catalog.New()
	switch *db {
	case "tpch":
		if err := tpch.Load(cat, tpch.Config{ScaleFactor: *sf, Seed: 42}); err != nil {
			fatal(err)
		}
	case "dmv":
		if err := dmv.Load(cat, dmv.Config{Scale: *scale, Seed: 17}); err != nil {
			fatal(err)
		}
	case "csv":
		if err := loadCSVDir(cat, *dir); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown database %q", *db))
	}
	fmt.Printf("loaded %s: tables %v\n", *db, cat.TableNames())
	fmt.Println(`POP is ON. Try: SELECT n_name, COUNT(*) AS n FROM nation, supplier WHERE n_nationkey = s_nationkey GROUP BY n_name;`)

	s := &session{
		cat:   cat,
		popOn: true,
		// One plan cache for the whole session: repeated statements reuse
		// their optimized plans when the validity-range guards allow it.
		cache: pop.NewCache(),
		reg:   metrics.New(),
	}
	defer s.stopTrace()
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Print("popsql> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\q`:
			return
		case line == `\tables`:
			fmt.Println(cat.TableNames())
		case line == `\metrics`:
			s.reg.Snapshot().WriteText(os.Stdout)
		case strings.HasPrefix(line, `\trace`):
			s.traceCmd(strings.TrimSpace(strings.TrimPrefix(line, `\trace`)))
		case strings.HasPrefix(line, `\pop`):
			arg := strings.TrimSpace(strings.TrimPrefix(line, `\pop`))
			s.popOn = arg != "off"
			fmt.Printf("POP is now %v\n", onOff(s.popOn))
		case strings.HasPrefix(line, `\planner`):
			s.plannerCmd(strings.TrimSpace(strings.TrimPrefix(line, `\planner`)))
		case strings.HasPrefix(line, `\explain`):
			s.explain(os.Stdout, strings.TrimSpace(strings.TrimPrefix(line, `\explain`)))
		case strings.HasPrefix(line, `\analyze`):
			s.analyze(strings.TrimSpace(strings.TrimPrefix(line, `\analyze`)))
		default:
			s.execute(line)
		}
		fmt.Print("popsql> ")
	}
}

// connectREPL is the -connect client loop: SQL lines execute on the server
// over the line-JSON protocol; \metrics fetches the server's counters; \q
// quits.
func connectREPL(addr string) {
	c, err := server.Dial(addr)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "popsql:", err)
		}
	}()
	if err := c.Ping(); err != nil {
		fatal(err)
	}
	fmt.Printf("connected to %s\n", addr)
	// planner is the strategy name sent with every query; the server resolves
	// it, so an unknown name surfaces as a typed parse rejection.
	planner := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Print("popsql> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\q`:
			return
		case strings.HasPrefix(line, `\planner`):
			arg := strings.TrimSpace(strings.TrimPrefix(line, `\planner`))
			switch arg {
			case "":
				if planner == "" {
					fmt.Println("planner: server default (dp-pop)")
				} else {
					fmt.Printf("planner: %s\n", planner)
				}
				for _, st := range pop.Strategies() {
					fmt.Printf("  %-16s %s\n", st.Name(), st.Describe())
				}
			case "default":
				planner = ""
				fmt.Println("planner is now the server default (dp-pop)")
			default:
				if _, err := pop.StrategyByName(arg); err != nil {
					fmt.Println("error:", err)
					break
				}
				planner = arg
				fmt.Printf("planner is now %s\n", planner)
			}
		case line == `\metrics`:
			text, err := c.MetricsText()
			if err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Print(text)
			}
		default:
			resp, err := c.QueryPlanner(line, planner)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			if !resp.OK {
				fmt.Printf("error (%s): %s\n", resp.Code, resp.Error)
				break
			}
			for _, row := range resp.Rows {
				fmt.Println(row)
			}
			if resp.RowCount > len(resp.Rows) {
				fmt.Printf("... (%d more rows)\n", resp.RowCount-len(resp.Rows))
			}
			fmt.Printf("-- %d rows, %.0f work units, %d re-optimization(s), %.1fms (%.1fms queued)\n",
				resp.RowCount, resp.Work, resp.Reopts,
				float64(resp.ElapsedNS)/1e6, float64(resp.WaitNS)/1e6)
			if resp.CacheHit {
				fmt.Println("-- plan cache HIT")
			}
			if resp.CacheInvalidated {
				fmt.Println("-- plan cache: violated plan invalidated")
			}
		}
		fmt.Print("popsql> ")
	}
}

// plannerCmd shows or sets the session's planner strategy. With no argument
// it lists every strategy, marking the active one; "default" (or "dp-pop")
// restores the engine default.
func (s *session) plannerCmd(arg string) {
	switch arg {
	case "":
		current := "dp-pop"
		if s.planner != nil {
			current = s.planner.Name()
		}
		for _, st := range pop.Strategies() {
			marker := "  "
			if st.Name() == current {
				marker = "* "
			}
			fmt.Printf("%s%-16s %s\n", marker, st.Name(), st.Describe())
		}
	case "default":
		s.planner = nil
		fmt.Println("planner is now dp-pop (default)")
	default:
		st, err := pop.StrategyByName(arg)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		s.planner = st
		fmt.Printf("planner is now %s\n", st.Name())
	}
}

// traceCmd arms or disarms the JSONL trace sink.
func (s *session) traceCmd(arg string) {
	switch arg {
	case "", "off":
		if s.jsonl == nil {
			fmt.Println("trace is off")
			return
		}
		n := s.jsonl.Events()
		s.stopTrace()
		fmt.Printf("trace stopped (%d events)\n", n)
	default:
		s.stopTrace()
		f, err := os.Create(arg)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		s.traceFile = f
		s.jsonl = trace.NewJSONL(f)
		fmt.Printf("tracing to %s\n", arg)
	}
}

// stopTrace flushes and closes the JSONL sink, if armed.
func (s *session) stopTrace() {
	if s.jsonl != nil {
		if err := s.jsonl.Flush(); err != nil {
			fmt.Println("trace error:", err)
		}
		s.jsonl = nil
	}
	if s.traceFile != nil {
		if err := s.traceFile.Close(); err != nil {
			fmt.Println("trace error:", err)
		}
		s.traceFile = nil
	}
}

func onOff(b bool) string {
	if b {
		return "ON"
	}
	return "OFF"
}

// explain prints the plan execute() would start with: the session's planner
// strategy and POP toggle are resolved the same way, so checkpoints appear
// only when execution would place them.
func (s *session) explain(w io.Writer, sql string) {
	q, err := sqlparse.Parse(s.cat, strings.TrimSuffix(sql, ";"))
	if err != nil {
		fmt.Fprintln(w, "error:", err)
		return
	}
	opts := pop.DefaultOptions()
	opts.Enabled = s.popOn
	opts.Planner = s.planner
	opts = opts.Resolve()
	opt := optimizer.New(s.cat)
	if opts.Configure != nil {
		opts.Configure(opt)
	}
	plan, err := opt.Optimize(q)
	if err != nil {
		fmt.Fprintln(w, "error:", err)
		return
	}
	shown, n := plan, 0
	if opts.Enabled {
		shown, n = pop.Place(plan, q, opts.Policy)
	}
	fmt.Fprintf(w, "-- plan (est cost %.0f, %d checkpoints):\n%s", plan.Cost, n, optimizer.Explain(shown, q))
}

// analyze is EXPLAIN ANALYZE: the statement runs under POP with per-operator
// attribution on, and every attempt's plan is printed with estimated vs
// actual rows, attributed work units, merged DOP, wall time and
// spill/violation flags — the per-operator view of the estimation errors POP
// reacts to.
func (s *session) analyze(sql string) {
	q, err := sqlparse.Parse(s.cat, strings.TrimSuffix(sql, ";"))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	opts := pop.DefaultOptions()
	opts.Enabled = s.popOn
	opts.Planner = s.planner
	opts.Analyze = true
	opts.Trace = s.recorder()
	res, err := pop.NewRunner(s.cat, opts).Run(q, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for i, a := range res.Attempts {
		if len(res.Attempts) > 1 {
			fmt.Printf("-- attempt %d:\n", i)
		}
		if a.Stats != nil {
			fmt.Print(executor.FormatStats(a.Stats, q, executor.AnalyzeOptions{Wall: true}))
		}
		if a.Violation != nil {
			fmt.Printf("-- %v\n", a.Violation)
		}
	}
	fmt.Printf("-- %d rows, %.0f work units, %d re-optimization(s)\n", len(res.Rows), res.Work, res.Reopts)
}

func (s *session) execute(sql string) {
	q, err := sqlparse.Parse(s.cat, strings.TrimSuffix(sql, ";"))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	opts := pop.DefaultOptions()
	opts.Enabled = s.popOn
	opts.Planner = s.planner
	opts.Trace = s.recorder()
	runner := pop.NewRunner(s.cat, opts)
	runner.Cache = s.cache
	res, err := runner.Run(q, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	info := res.Cache
	limit := 20
	for i, row := range res.Rows {
		if i >= limit {
			fmt.Printf("... (%d more rows)\n", len(res.Rows)-limit)
			break
		}
		fmt.Println(row)
	}
	fmt.Printf("-- %d rows, %.0f work units, %d re-optimization(s)\n", len(res.Rows), res.Work, res.Reopts)
	if info.Hit {
		fmt.Printf("-- plan cache HIT: optimization skipped (%d guard estimates, %d candidate costings saved)\n",
			info.OptWork, info.OptWorkSaved)
	} else {
		fmt.Printf("-- plan cache MISS: optimized %d candidates, plan cached\n", info.OptWork)
	}
	if info.Invalidated {
		fmt.Println("-- plan cache: violated plan invalidated, re-optimized plan cached")
	}
	if res.Reopts > 0 {
		for i, a := range res.Attempts {
			if a.Violation != nil {
				fmt.Printf("-- attempt %d: %v\n", i, a.Violation)
			}
		}
	}
}

// loadCSVDir loads every *.csv file in dir as a table named after the file.
func loadCSVDir(cat *catalog.Catalog, dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no *.csv files in %s", dir)
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(filepath.Base(path), ".csv")
		_, err = cat.LoadCSV(name, f)
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "popsql:", err)
	os.Exit(1)
}
