// Command popbench regenerates every table and figure of the paper's
// evaluation (§5, §6) on the synthetic substrates, and the plan-quality
// studies checked in as BENCH_studies.json. All numbers are deterministic
// simulated work units and counts; see DESIGN.md for the substitutions.
// Wall-clock measurement is `go run ./bench`, not this command.
//
// Usage:
//
//	popbench -all                 # every exhibit, then every study
//	popbench -fig 11 -steps 10    # one figure
//	popbench -table 1
//	popbench -fig 15 -dmvscale 1 -queries 39
//	popbench -study all           # plancache + planners → BENCH_studies.json
//	popbench -study planners -smoke -out /tmp/s.json
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
		fig      = flag.Int("fig", 0, "figure to regenerate (11-16)")
		table    = flag.Int("table", 0, "table to regenerate (1)")
		all      = flag.Bool("all", false, "every table and figure, then -study all")
		sf       = flag.Float64("sf", 0.005, "TPC-H scale factor (SF1 = 6M lineitems)")
		dmvScale = flag.Float64("dmvscale", 0.5, "DMV database scale (1.0 = 30k cars)")
		steps    = flag.Int("steps", 10, "selectivity steps for figure 11")
		nq       = flag.Int("queries", dmv.NumQueries, "number of DMV queries for figures 15/16")
		study    = flag.String("study", "", "study to run: plancache, planners or all")
		out      = flag.String("out", "BENCH_studies.json", "output path for the study report JSON")
		smoke    = flag.Bool("smoke", false, "shrink the studies' workloads")
	)
	flag.Parse()

	if !*all && *fig == 0 && *table == 0 && *study == "" {
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

	// Figures 15 and 16 are two views of one DMV run.
	var dmvResults []harness.DMVResult
	dmvStudy := func() []harness.DMVResult {
		if dmvResults == nil {
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
			if dmvResults, err = harness.DMVStudy(cat, qs); err != nil {
				fatal(err)
			}
		}
		return dmvResults
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
		case 15:
			harness.WriteFig15(os.Stdout, dmvStudy())
		case 16:
			harness.WriteFig16(os.Stdout, dmvStudy())
		default:
			fatal(fmt.Errorf("unknown figure %d (supported: 11-16)", n))
		}
		fmt.Println()
	}

	runStudies := func(name string) {
		rep, err := harness.RunStudies(name, harness.Env{TPCH: loadTPCH(), DMVScale: *dmvScale, Smoke: *smoke})
		if err != nil {
			fatal(err)
		}
		harness.WriteStudies(os.Stdout, rep)
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := harness.WriteStudiesJSON(f, rep); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}

	if *all {
		harness.WriteTable1(os.Stdout)
		fmt.Println()
		for _, n := range []int{11, 12, 13, 14, 15, 16} {
			run(n)
		}
		runStudies("all")
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
	if *study != "" {
		runStudies(*study)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "popbench:", err)
	os.Exit(1)
}
