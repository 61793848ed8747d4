// Quickstart: build a small database, run a SQL query with progressive
// optimization enabled, and watch a checkpoint fire and re-optimize the plan
// mid-execution.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/catalog"
	"repro/internal/pop"
	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/types"
)

func main() {
	// 1. Create a catalog with two tables. The "events" table has three
	//    perfectly correlated kind columns: the optimizer's independence
	//    assumption under-estimates a conjunction over them by ~1600x,
	//    which lures it into a repeated-scan nested-loop join.
	cat := catalog.New()
	users, err := cat.CreateTable("users", schema.New(
		schema.Column{Name: "u_id", Type: types.KindInt},
		schema.Column{Name: "u_name", Type: types.KindString},
	))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 8000; i++ {
		users.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("user%05d", i)),
		})
	}
	events, err := cat.CreateTable("events", schema.New(
		schema.Column{Name: "e_id", Type: types.KindInt},
		schema.Column{Name: "e_user", Type: types.KindInt},
		schema.Column{Name: "e_kind", Type: types.KindInt},
		schema.Column{Name: "e_kind2", Type: types.KindInt}, // == e_kind
		schema.Column{Name: "e_kind3", Type: types.KindInt}, // == e_kind
	))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		kind := int64(i % 40)
		events.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 8000)),
			types.NewInt(kind),
			types.NewInt(kind),
			types.NewInt(kind),
		})
	}
	if err := cat.AnalyzeAll(); err != nil {
		log.Fatal(err)
	}

	// 2. Parse a query whose WHERE clause hits the correlation.
	q, err := sqlparse.Parse(cat, `
		SELECT u.u_name, COUNT(*) AS n
		FROM events e, users u
		WHERE e.e_user = u.u_id AND e.e_kind = 3 AND e.e_kind2 = 3 AND e.e_kind3 = 3
		GROUP BY u.u_name
		ORDER BY u.u_name LIMIT 5`)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Run it twice: once statically, once with POP.
	static, err := pop.NewRunner(cat, pop.Options{Enabled: false}).Run(q, nil)
	if err != nil {
		log.Fatal(err)
	}
	progressive, err := pop.NewRunner(cat, pop.DefaultOptions()).Run(q, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== static optimization ==")
	fmt.Printf("work: %.0f units, plan:\n%s\n", static.Work, static.Attempts[0].Explain())
	fmt.Println("== progressive optimization ==")
	for i, a := range progressive.Attempts {
		fmt.Printf("-- attempt %d (%d checkpoints):\n%s", i, a.Checks, a.Explain())
		if a.Violation != nil {
			fmt.Printf("   ↳ %v\n", a.Violation)
		}
	}
	fmt.Printf("work: %.0f units, re-optimizations: %d\n\n", progressive.Work, progressive.Reopts)
	fmt.Printf("first rows (both runs return identical results):\n")
	for _, row := range progressive.Rows {
		fmt.Println(" ", row)
	}
	fmt.Printf("\nspeedup from POP: %.2fx\n", static.Work/progressive.Work)
}
