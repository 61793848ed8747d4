package main

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/pop"
	"repro/internal/tpch"
)

// TestExplainMatchesExecution: \explain shows checkpoints only when
// execution would place them — under dp-pop a 3-way join is checkpointed,
// while \pop off and the greedy-only strategy run with none.
func TestExplainMatchesExecution(t *testing.T) {
	cat := catalog.New()
	if err := tpch.Load(cat, tpch.Config{ScaleFactor: 0.002, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT c_name, o_orderdate FROM customer, orders, lineitem
		WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_quantity > 45;`
	header := regexp.MustCompile(`(\d+) checkpoints\):`)
	checkpoints := func(s *session) int {
		t.Helper()
		var b strings.Builder
		s.explain(&b, sql)
		m := header.FindStringSubmatch(b.String())
		if m == nil {
			t.Fatalf("no plan header in:\n%s", b.String())
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(b.String(), "CHECK"); got != n {
			t.Errorf("header says %d checkpoints, plan shows %d:\n%s", n, got, b.String())
		}
		return n
	}

	if n := checkpoints(&session{cat: cat, popOn: true}); n == 0 {
		t.Error("dp-pop: the 3-way join should carry checkpoints")
	}
	if n := checkpoints(&session{cat: cat, popOn: false}); n != 0 {
		t.Errorf(`\pop off: %d checkpoints shown, execution places none`, n)
	}
	if n := checkpoints(&session{cat: cat, popOn: true, planner: pop.GreedyOnly}); n != 0 {
		t.Errorf("greedy-only: %d checkpoints shown, execution places none", n)
	}
}
