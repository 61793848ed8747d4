// Correlated demonstrates the paper's §6 DMV case study on the synthetic
// correlated database: restrictions over correlated columns (MAKE, MODEL,
// COLOR) make the optimizer under-estimate cardinalities by orders of
// magnitude and choose plans whose actual cost explodes; POP detects and
// repairs them mid-flight.
//
//	go run ./examples/correlated
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/catalog"
	"repro/internal/dmv"
	"repro/internal/harness"
	"repro/internal/pop"
)

func main() {
	cat := catalog.New()
	if err := dmv.Load(cat, dmv.Config{Scale: 0.3, Seed: 17}); err != nil {
		log.Fatal(err)
	}
	qs, err := dmv.Queries(cat)
	if err != nil {
		log.Fatal(err)
	}

	// Deep-dive on one query with a triple correlation.
	qi := qs[1] // make+model+color combo
	fmt.Printf("query %s: %s\n%s\n\n", qi.Name, qi.Desc, qi.Query)
	static, err := pop.NewRunner(cat, pop.Options{Enabled: false}).Run(qi.Query, nil)
	if err != nil {
		log.Fatal(err)
	}
	progressive, err := pop.NewRunner(cat, pop.DefaultOptions()).Run(qi.Query, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static plan:\n%s", static.Attempts[0].Explain())
	fmt.Printf("static work: %.0f units\n\n", static.Work)
	for i, a := range progressive.Attempts {
		fmt.Printf("POP attempt %d:\n%s", i, a.Explain())
		if a.Violation != nil {
			fmt.Printf("  ↳ %v (MVs kept: %d)\n", a.Violation, a.MVsCreated)
		}
	}
	fmt.Printf("POP work: %.0f units — %.1fx %s\n\n",
		progressive.Work, factor(static.Work, progressive.Work), direction(static.Work, progressive.Work))

	// Then the first ten workload queries, paper-Figure-16 style: the fig15
	// study at smoke size, on a DMV database of its own at the same scale.
	rep, err := harness.RunStudies("fig15", harness.Env{DMVScale: 0.3, Smoke: true})
	if err != nil {
		log.Fatal(err)
	}
	desc := map[string]string{}
	for _, qi := range qs {
		desc[qi.Name] = qi.Desc
	}
	results := rep.Studies[0].Cells
	summary := results[len(results)-1]
	results = results[:len(results)-1]
	sort.SliceStable(results, func(i, j int) bool { return get(results[i], "factor") > get(results[j], "factor") })
	fmt.Printf("speedup(+)/regression(−) over the first %d workload queries:\n", len(results))
	for _, c := range results {
		fmt.Printf("  %-7s %+7.2fx  (%s)\n", c.Name, get(c, "factor"), desc[c.Name])
	}
	fmt.Printf("improved=%.0f regressed=%.0f neutral=%.0f, max speedup %.1fx\n",
		get(summary, "improved"), get(summary, "regressed"), get(summary, "neutral"), get(summary, "max_speedup"))
}

// get returns a count of a fig15 cell.
func get(c harness.Cell, name string) float64 {
	v, _ := c.Count(name)
	return v
}

func factor(a, b float64) float64 {
	if a >= b {
		return a / b
	}
	return b / a
}

func direction(static, progressive float64) string {
	if static >= progressive {
		return "faster with POP"
	}
	return "slower with POP (regression)"
}
