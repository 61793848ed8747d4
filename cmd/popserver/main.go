// Command popserver serves the engine over TCP (line-delimited JSON) and
// HTTP: concurrent sessions share one catalog, one plan cache and one
// admission-controlled worker scheduler that arbitrates the global worker
// budget between queries (see DESIGN.md §12).
//
// Usage:
//
//	popserver -db tpch -sf 0.01 -addr 127.0.0.1:7070 -http 127.0.0.1:7071
//
// SIGINT/SIGTERM drain gracefully: in-flight queries finish (bounded by
// -draintimeout), new queries are rejected with the typed "draining" code,
// and trace/metrics sinks flush before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/dmv"
	"repro/internal/pop"
	"repro/internal/server"
	"repro/internal/tpch"
	"repro/internal/trace"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7070", "TCP listen address (line-JSON protocol)")
		httpAddr     = flag.String("http", "", "HTTP listen address (POST /query, GET /metrics, GET /healthz); empty = off")
		db           = flag.String("db", "tpch", "database to load: tpch or dmv")
		sf           = flag.Float64("sf", 0.01, "TPC-H scale factor")
		scale        = flag.Float64("scale", 0.5, "DMV scale")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "planned exchange width per query")
		budget       = flag.Int("budget", runtime.GOMAXPROCS(0), "global worker-pool budget across all queries")
		slots        = flag.Int("slots", 0, "concurrently running queries (0 = budget/2, min 2)")
		sessionQueue = flag.Int("sessionqueue", 4, "per-session admission-queue allowance before backpressure")
		nocache      = flag.Bool("nocache", false, "disable the shared plan cache")
		maxRows      = flag.Int("maxrows", 1000, "rows returned per response (0 = unlimited)")
		traceOut     = flag.String("trace", "", "append JSONL trace events to this file")
		metricsOut   = flag.String("metricsout", "", "write a final metrics snapshot (text) to this file on shutdown")
		drainTO      = flag.Duration("draintimeout", 30*time.Second, "how long shutdown waits for in-flight queries")
		failCheck    = flag.Bool("failcheck", false, "force every query's first checkpoint to fail (smoke-test knob: guarantees re-optimizations)")
	)
	flag.Parse()

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
	default:
		fatal(fmt.Errorf("unknown database %q", *db))
	}

	cfg := server.Config{
		Addr:     *addr,
		HTTPAddr: *httpAddr,
		Sched: server.SchedConfig{
			WorkerBudget: *budget,
			RunSlots:     *slots,
			SessionQueue: *sessionQueue,
		},
		Workers:      *workers,
		DisableCache: *nocache,
		MaxRows:      *maxRows,
		DrainTimeout: *drainTO,
	}
	if *failCheck {
		cfg.Options = func(o *pop.Options) {
			o.Policy.FailCheckIDs = map[int]bool{0: true}
		}
	}
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		traceFile = f
		cfg.TraceJSONL = trace.NewJSONL(f)
	}

	s := server.New(cat, cfg)
	if err := s.Start(); err != nil {
		fatal(err)
	}
	sched := s.Scheduler().Config()
	fmt.Printf("popserver: %s (%d tables) on %s", *db, len(cat.TableNames()), s.Addr())
	if h := s.HTTPAddr(); h != "" {
		fmt.Printf(", http %s", h)
	}
	fmt.Printf("; workers=%d budget=%d slots=%d sessionqueue=%d\n",
		s.Config().Workers, sched.WorkerBudget, sched.RunSlots, sched.SessionQueue)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("popserver: %v, draining...\n", got)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTO+5*time.Second)
	defer cancel()
	code := 0
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "popserver: shutdown:", err)
		code = 1
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "popserver: trace close:", err)
			code = 1
		}
	}
	m, st := s.Metrics(), s.Scheduler().Stats()
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "popserver:", err)
			code = 1
		} else {
			m.WriteText(f)
			st.WriteText(f)
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "popserver:", err)
				code = 1
			}
		}
	}
	fmt.Printf("popserver: drained; served %d queries (%d reopts, %d dop clamps)\n",
		m.Queries, m.Reoptimizations, st.DOPClamps)
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "popserver:", err)
	os.Exit(1)
}
