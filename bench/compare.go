package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// contract is the part of BENCHMARK.json the comparison needs.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// readContract reads BENCHMARK.json.
func readContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// readRecords reads an -out file and groups its untraced runs' values by
// workload and metric.
func readRecords(path string) (vals map[string]map[string][]float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	vals = map[string]map[string][]float64{}
	for dec := json.NewDecoder(f); dec.More(); {
		var rec record
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if vals[rec.Workload] == nil {
			vals[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			vals[rec.Workload][name] = append(vals[rec.Workload][name], m.Value)
		}
	}
	return vals, nil
}

// compareFiles prints, per end-to-end metric and workload, the medians of
// the two files' runs, B's change against A and the bound, and returns 1
// when any pair is worse than its bound or present in one file only, 0
// otherwise.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	c, err := readContract("BENCHMARK.json") // at the repository root, where the benchmark is run from
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-14s %-16s %14s %14s %9s %8s\n", "workload", "metric", "median A", "median B", "worse by", "bound")
	for _, wl := range c.Workloads {
		for _, m := range c.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 && len(vb) == 0 {
				continue // neither file ran this workload
			}
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-14s %-16s missing (A has %d runs, B has %d)\n", wl.Name, m.Name, len(va), len(vb))
				code = 1
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  OUTSIDE BOUND"
				code = 1
			}
			fmt.Fprintf(stdout, "%-14s %-16s %14.6g %14.6g %+8.2f%% %7.0f%%%s\n", wl.Name, m.Name, ma, mb, 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}
