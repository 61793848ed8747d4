package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/catalog"
	"repro/internal/pop"
)

// This file is the study runner (BENCH_studies.json). A study is a name
// plus a function returning ordered cells; a cell is a name plus ordered
// counts, and a cell's name is unique within its study. The paper's
// figures (harness.go) are studies like the plan-cache and planner ones. Every count is deterministic — work units, re-optimizations,
// cache verdicts, candidates, rows — so the report is byte-identical on
// every run and every machine, and CI regenerates it and fails on drift.
// Nothing here reads a clock or the allocator: wall time, throughput and
// allocations are measured by `go run ./bench` (bench/README.md).

// Count is one named deterministic number of a cell.
type Count struct {
	Name  string
	Value float64
}

// Cell is one row of a study.
type Cell struct {
	Name   string
	Counts []Count
}

// Count returns the named count and whether the cell has it.
func (c Cell) Count(name string) (float64, bool) {
	for _, n := range c.Counts {
		if n.Name == name {
			return n.Value, true
		}
	}
	return 0, false
}

// MarshalJSON renders the cell as one object whose keys keep the order of
// Counts (a map would sort them).
func (c Cell) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"cell":%q`, c.Name)
	for _, n := range c.Counts {
		v, err := json.Marshal(n.Value)
		if err != nil {
			return nil, fmt.Errorf("cell %s count %s: %w", c.Name, n.Name, err)
		}
		fmt.Fprintf(&b, `,%q:%s`, n.Name, v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// Study is one study's cells, in the order it produced them.
type Study struct {
	Name  string `json:"study"`
	Cells []Cell `json:"cells"`
}

// Report is what one popbench -study run produces.
type Report struct {
	Smoke   bool    `json:"smoke"`
	Studies []Study `json:"studies"`
}

// Env is what the studies run over: the caller's loaded TPC-H catalog, the
// scale at which a study builds its own DMV database, and whether to shrink
// the workloads to smoke size (tests).
type Env struct {
	TPCH     *catalog.Catalog
	DMVScale float64
	Smoke    bool
}

// studies is the registry, in report order.
var studies = []struct {
	name string
	run  func(Env) ([]Cell, error)
}{
	{"fig11", fig11Study},
	{"fig12", fig12Study},
	{"fig13", fig13Study},
	{"fig14", fig14Study},
	{"fig15", fig15Study}, // Figures 15 and 16: two views of one DMV run
	{"plancache", planCacheStudy},
	{"planners", plannerStudy},
}

// RunStudies runs the named study, or every study for "all".
func RunStudies(name string, env Env) (*Report, error) {
	rep := &Report{Smoke: env.Smoke}
	names := make([]string, 0, len(studies))
	for _, s := range studies {
		names = append(names, s.name)
		if name != "all" && name != s.name {
			continue
		}
		cells, err := s.run(env)
		if err != nil {
			return nil, fmt.Errorf("study %s: %w", s.name, err)
		}
		rep.Studies = append(rep.Studies, Study{Name: s.name, Cells: cells})
	}
	if len(rep.Studies) == 0 {
		return nil, fmt.Errorf("unknown study %q (valid: %s, all)", name, strings.Join(names, ", "))
	}
	return rep, nil
}

// WriteStudiesJSON renders the report as indented JSON (BENCH_studies.json).
func WriteStudiesJSON(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteStudies renders the report as one table per study: a row per cell, a
// column per count name in first-seen order, "-" where a cell has no such
// count.
func WriteStudies(w io.Writer, r *Report) {
	for i, s := range r.Studies {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "Study %s (smoke=%v)\n", s.Name, r.Smoke)
		var cols []string
		seen := map[string]bool{}
		for _, c := range s.Cells {
			for _, n := range c.Counts {
				if !seen[n.Name] {
					seen[n.Name] = true
					cols = append(cols, n.Name)
				}
			}
		}
		fmt.Fprintf(w, "%-24s", "cell")
		for _, col := range cols {
			fmt.Fprintf(w, " %13s", col)
		}
		fmt.Fprintln(w)
		for _, c := range s.Cells {
			fmt.Fprintf(w, "%-24s", c.Name)
			for _, col := range cols {
				text := "-"
				if v, ok := c.Count(col); ok {
					text = fmt.Sprintf("%.10g", v)
				}
				fmt.Fprintf(w, " %13s", text)
			}
			fmt.Fprintln(w)
		}
	}
}

// tally accumulates the counts every execution cell starts with.
type tally struct {
	executions, rows, reopts int
	work                     float64
}

func (t *tally) add(r *pop.Result) {
	t.executions++
	t.rows += len(r.Rows)
	t.work += r.Work
	t.reopts += r.Reopts
}

func (t *tally) counts() []Count {
	return []Count{
		{"executions", float64(t.executions)},
		{"rows", float64(t.rows)},
		{"exec_work", t.work},
		{"reopts", float64(t.reopts)},
	}
}

// verdicts sums the plan-cache verdicts of runs through one cache: a run
// the cache did not hit is a miss.
type verdicts struct{ hits, misses, invalidations int }

func (v *verdicts) add(c pop.ExecInfo) {
	if c.Hit {
		v.hits++
	} else {
		v.misses++
	}
	if c.Invalidated {
		v.invalidations++
	}
}

// counts are the verdicts with the plans the cache holds at the end.
func (v verdicts) counts(cache *pop.Cache) []Count {
	return []Count{
		{"hits", float64(v.hits)},
		{"misses", float64(v.misses)},
		{"invalidations", float64(v.invalidations)},
		{"plans", float64(cache.Stats().Plans)},
	}
}
