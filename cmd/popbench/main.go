// Command popbench regenerates every table and figure of the paper's
// evaluation (§5, §6) on the synthetic substrates. All numbers are
// deterministic simulated work units; see DESIGN.md for the substitutions.
//
// Usage:
//
//	popbench -all                 # every experiment
//	popbench -fig 11 -steps 10    # one figure
//	popbench -table 1
//	popbench -fig 15 -dmvscale 1 -queries 39
//	popbench -parallel            # parallel-runtime study → BENCH_parallel.json
//	popbench -plancache           # plan-cache study → BENCH_plancache.json
//	popbench -observability       # tracing-overhead study → BENCH_observability.json
//	popbench -server              # multi-client serving study → BENCH_server.json
//	popbench -server -smoke       # shrunken serving study for CI
//	popbench -planners            # planner shootout → BENCH_planners.json
//	popbench -planners -smoke     # shrunken shootout for CI
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/catalog"
	"repro/internal/dmv"
	"repro/internal/harness"
	"repro/internal/tpch"
)

func main() {
	var (
		fig      = flag.Int("fig", 0, "figure to regenerate (11-16); 0 with -all runs everything")
		table    = flag.Int("table", 0, "table to regenerate (1)")
		all      = flag.Bool("all", false, "run every experiment")
		sf       = flag.Float64("sf", 0.005, "TPC-H scale factor (SF1 = 6M lineitems)")
		dmvScale = flag.Float64("dmvscale", 0.5, "DMV database scale (1.0 = 30k cars)")
		steps    = flag.Int("steps", 10, "selectivity steps for figure 11")
		nq       = flag.Int("queries", dmv.NumQueries, "number of DMV queries for figures 15/16")
		parallel = flag.Bool("parallel", false, "run the parallel-runtime study")
		parOut   = flag.String("parout", "BENCH_parallel.json", "output path for the parallel study JSON")
		pcache   = flag.Bool("plancache", false, "run the plan-cache study")
		pcOut    = flag.String("plancacheout", "BENCH_plancache.json", "output path for the plan-cache study JSON")
		sweeps   = flag.Int("sweeps", 3, "binding sweeps for the plan-cache and observability studies")
		obs      = flag.Bool("observability", false, "run the tracing-overhead study")
		obsOut   = flag.String("obsout", "BENCH_observability.json", "output path for the observability study JSON")
		srv      = flag.Bool("server", false, "run the multi-client serving study (work identity + open/closed-loop load matrix)")
		srvOut   = flag.String("serverout", "BENCH_server.json", "output path for the serving study JSON")
		planners = flag.Bool("planners", false, "run the planner shootout (dp-pop vs greedy vs unguarded reopt across TPC-H, DMV, skew)")
		planOut  = flag.String("plannersout", "BENCH_planners.json", "output path for the planner shootout JSON")
		smoke    = flag.Bool("smoke", false, "shrink the serving and planner studies (CI smoke)")
	)
	flag.Parse()

	if !*all && *fig == 0 && *table == 0 && !*parallel && !*pcache && !*obs && !*srv && !*planners {
		flag.Usage()
		os.Exit(2)
	}

	var tpchCat *catalog.Catalog
	loadTPCH := func() *catalog.Catalog {
		if tpchCat == nil {
			start := time.Now()
			tpchCat = catalog.New()
			if err := tpch.Load(tpchCat, tpch.Config{ScaleFactor: *sf, Seed: 42}); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "loaded TPC-H SF=%g in %v\n", *sf, time.Since(start).Round(time.Millisecond))
		}
		return tpchCat
	}

	run := func(n int) {
		switch n {
		case 11:
			points, err := harness.Fig11(loadTPCH(), *steps)
			if err != nil {
				fatal(err)
			}
			harness.WriteFig11(os.Stdout, points)
		case 12:
			bars, err := harness.Fig12(loadTPCH())
			if err != nil {
				fatal(err)
			}
			harness.WriteFig12(os.Stdout, bars)
		case 13:
			rows, err := harness.Fig13(loadTPCH())
			if err != nil {
				fatal(err)
			}
			harness.WriteFig13(os.Stdout, rows)
		case 14:
			points, err := harness.Fig14(loadTPCH())
			if err != nil {
				fatal(err)
			}
			harness.WriteFig14(os.Stdout, points)
		case 15, 16:
			start := time.Now()
			cat := catalog.New()
			if err := dmv.Load(cat, dmv.Config{Scale: *dmvScale, Seed: 17}); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "loaded DMV scale=%g in %v\n", *dmvScale, time.Since(start).Round(time.Millisecond))
			qs, err := dmv.Queries(cat)
			if err != nil {
				fatal(err)
			}
			if *nq < len(qs) {
				qs = qs[:*nq]
			}
			results, err := harness.DMVStudy(cat, qs)
			if err != nil {
				fatal(err)
			}
			if n == 15 {
				harness.WriteFig15(os.Stdout, results)
			} else {
				harness.WriteFig16(os.Stdout, results)
			}
		default:
			fatal(fmt.Errorf("unknown figure %d (supported: 11-16)", n))
		}
		fmt.Println()
	}

	runParallel := func() {
		// The study wants enough rows per morsel stripe for scaling to show
		// over exchange setup, so it loads its own larger instance.
		start := time.Now()
		cat := catalog.New()
		if err := tpch.Load(cat, tpch.Config{ScaleFactor: 0.02, Seed: 7}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded TPC-H SF=0.02 in %v\n", time.Since(start).Round(time.Millisecond))
		points, err := harness.ParallelStudy(cat)
		if err != nil {
			fatal(err)
		}
		harness.WriteParallel(os.Stdout, points)
		f, err := os.Create(*parOut)
		if err != nil {
			fatal(err)
		}
		if err := harness.WriteParallelJSON(f, points); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *parOut)
	}

	runPlanCache := func() {
		res, err := harness.PlanCacheStudy(loadTPCH(), *sweeps)
		if err != nil {
			fatal(err)
		}
		harness.WritePlanCache(os.Stdout, res)
		f, err := os.Create(*pcOut)
		if err != nil {
			fatal(err)
		}
		if err := harness.WritePlanCacheJSON(f, res); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *pcOut)
	}

	runObservability := func() {
		res, err := harness.ObservabilityStudy(loadTPCH(), *sweeps)
		if err != nil {
			fatal(err)
		}
		harness.WriteObservability(os.Stdout, res)
		f, err := os.Create(*obsOut)
		if err != nil {
			fatal(err)
		}
		if err := harness.WriteObservabilityJSON(f, res); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *obsOut)
	}

	runServer := func() {
		res, err := harness.ServerStudy(loadTPCH(), *smoke)
		if err != nil {
			fatal(err)
		}
		harness.WriteServer(os.Stdout, res)
		f, err := os.Create(*srvOut)
		if err != nil {
			fatal(err)
		}
		if err := harness.WriteServerJSON(f, res); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *srvOut)
	}

	runPlanners := func() {
		res, err := harness.PlannerStudy(loadTPCH(), *dmvScale, *smoke)
		if err != nil {
			fatal(err)
		}
		harness.WritePlanners(os.Stdout, res)
		f, err := os.Create(*planOut)
		if err != nil {
			fatal(err)
		}
		if err := harness.WritePlannersJSON(f, res); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *planOut)
	}

	if *all {
		harness.WriteTable1(os.Stdout)
		fmt.Println()
		for _, n := range []int{11, 12, 13, 14, 15, 16} {
			run(n)
		}
		runParallel()
		fmt.Println()
		runPlanCache()
		fmt.Println()
		runObservability()
		fmt.Println()
		runServer()
		fmt.Println()
		runPlanners()
		return
	}
	if *table == 1 {
		harness.WriteTable1(os.Stdout)
		fmt.Println()
	} else if *table != 0 {
		fatal(fmt.Errorf("unknown table %d (supported: 1)", *table))
	}
	if *fig != 0 {
		run(*fig)
	}
	if *parallel {
		runParallel()
	}
	if *pcache {
		runPlanCache()
	}
	if *obs {
		runObservability()
	}
	if *srv {
		runServer()
	}
	if *planners {
		runPlanners()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "popbench:", err)
	os.Exit(1)
}
