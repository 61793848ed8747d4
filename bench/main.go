// Command bench is the repository's benchmark: four workloads over the POP
// engine, six bounded end-to-end metrics plus the failed share, and a
// per-layer trace, all measured from outside the engine's packages. See
// README.md in this directory; BENCHMARK.json at the repository root is the
// machine-readable contract.
//
//	go run ./bench -seed 1                       every workload, untraced then traced
//	go run ./bench -workload exec_tpch -trace 0  one run, end-to-end metrics
//	go run ./bench -workload exec_tpch -trace 1  one run, per-layer metrics and span file
//	go run ./bench -compare A.jsonl B.jsonl      medians of two -out files against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// runBudget aborts a run that would otherwise hang: no single run may take
// longer, whatever the engine does.
const runBudget = 170 * time.Second

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain parses the command line and dispatches; it returns the exit code.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "workload to run: serve_hot, serve_fetch, exec_tpch or adaptive_dmv (default: all four)")
		seed         = fs.Int64("seed", 1, "seed of the request order")
		seconds      = fs.Int("seconds", 13, "length of the timed window; it closes at the next whole cycle of the deck")
		traceMode    = fs.String("trace", "", "0: end-to-end metrics, tracing off; 1: per-layer metrics and span file (default: 0 then 1)")
		spansPath    = fs.String("spans", "", "span file of a traced run (default .bench_out/spans-WORKLOAD-SEED.jsonl)")
		outPath      = fs.String("out", "", "append each run's record to this JSON Lines file")
		compare      = fs.Bool("compare", false, "compare two -out files given as arguments against BENCHMARK.json's bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	var wls []*workload
	if *workloadName == "" {
		for i := range workloads {
			wls = append(wls, &workloads[i])
		}
	} else {
		wl, err := workloadByName(*workloadName)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		wls = []*workload{wl}
	}
	var traces []bool
	switch *traceMode {
	case "":
		traces = []bool{false, true}
	case "0":
		traces = []bool{false}
	case "1":
		traces = []bool{true}
	default:
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1")
		return 2
	}

	code := 0
	for _, wl := range wls {
		for _, traced := range traces {
			cfg := runConfig{wl: wl, seed: *seed, minDur: time.Duration(*seconds) * time.Second, traced: traced, spans: *spansPath, log: stdout}
			if cfg.spans == "" {
				cfg.spans = filepath.Join(".bench_out", fmt.Sprintf("spans-%s-%d.jsonl", wl.name, *seed))
			}
			watchdog := time.AfterFunc(runBudget, func() {
				fmt.Fprintf(stderr, "bench: %s did not finish within %v\n", wl.name, runBudget)
				os.Exit(3)
			})
			rec, err := run(cfg)
			watchdog.Stop()
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
				return 1
			}
			printRecord(stdout, &rec)
			if *outPath != "" {
				if err := appendRecord(*outPath, &rec); err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
			}
			line, err := json.Marshal(rec.summary)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", line)
			if !rec.Correct {
				code = 1
			}
		}
	}
	return code
}

// appendRecord adds one run to a JSON Lines result file.
func appendRecord(path string, rec *record) (err error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	return json.NewEncoder(f).Encode(rec)
}
