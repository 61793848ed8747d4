// Command popbench regenerates the paper's evaluation (Figs. 11–16, §5, §6)
// on the synthetic substrates, and the plan-quality studies, as entries of
// one study registry checked in as BENCH_studies.json. All numbers are
// deterministic simulated work units and counts; see DESIGN.md for the
// substitutions. Wall-clock measurement is `go run ./bench`, not this
// command.
//
// Usage:
//
//	popbench -study all           # every study → BENCH_studies.json
//	popbench -study fig11         # one study, printed only
//	popbench -study fig15 -dmvscale 1 -out /tmp/fig15.json
//	popbench -study planners -smoke -out /tmp/s.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/catalog"
	"repro/internal/harness"
	"repro/internal/tpch"
)

// defaultOut is where -study all writes its report when -out is not given.
const defaultOut = "BENCH_studies.json"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is popbench with its arguments and output streams; it returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("popbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sf       = fs.Float64("sf", 0.005, "TPC-H scale factor (SF1 = 6M lineitems)")
		dmvScale = fs.Float64("dmvscale", 0.5, "DMV database scale (1.0 = 30k cars)")
		study    = fs.String("study", "", "study to run: fig11, fig12, fig13, fig14, fig15, plancache, planners or all")
		out      = fs.String("out", "", "output path for the study report JSON (default "+defaultOut+" for -study all; none for one study)")
		smoke    = fs.Bool("smoke", false, "shrink the studies' workloads")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *study == "" {
		fs.Usage()
		return 2
	}
	path := *out
	if path == "" && *study == "all" {
		path = defaultOut
	}
	if err := runStudies(*study, path, *sf, harness.Env{DMVScale: *dmvScale, Smoke: *smoke}, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "popbench:", err)
		return 1
	}
	return 0
}

// runStudies loads TPC-H at scale factor sf, runs the named study, prints
// its tables and, if path is not empty, writes the report there.
func runStudies(name, path string, sf float64, env harness.Env, stdout, stderr io.Writer) error {
	start := time.Now()
	env.TPCH = catalog.New()
	if err := tpch.Load(env.TPCH, tpch.Config{ScaleFactor: sf, Seed: 42}); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "loaded TPC-H SF=%g in %v\n", sf, time.Since(start).Round(time.Millisecond))
	rep, err := harness.RunStudies(name, env)
	if err != nil {
		return err
	}
	harness.WriteStudies(stdout, rep)
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := harness.WriteStudiesJSON(f, rep); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", path)
	return nil
}
