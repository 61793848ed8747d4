package main

import (
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/dmv"
	"repro/internal/logical"
	"repro/internal/plancache"
	"repro/internal/sqlparse"
	"repro/internal/tpch"
	"repro/internal/types"
)

// kind is one distinct statement×binding: the unit the correctness gate
// checks and the deck is made of.
type kind struct {
	name  string
	sql   string         // wire text; empty on the library path
	query *logical.Query // what the reference and the library path run
	param *float64       // nil when the statement takes no parameter
}

// params is the kind's parameter binding as the engine takes it.
func (k *kind) params() []types.Datum {
	if k.param == nil {
		return nil
	}
	return []types.Datum{types.NewFloat(*k.param)}
}

// workload is one set of inputs. build returns the distinct kinds and the
// deck: one cycle of requests as indices into kinds. The deck's multiset is
// fixed; the seed only shuffles its order, so every seed executes the same
// requests per cycle and metrics stay comparable across seeds.
type workload struct {
	name string
	why  string
	dmv  bool // DMV database instead of TPC-H
	wire bool // through the TCP server instead of the library
	// tracedCycles is the length of each serial twin pass (untraced, traced)
	// in whole cycles of the deck, so the traced mix is the deck's.
	tracedCycles int
	build        func(cat *catalog.Catalog) ([]kind, []int, error)
}

// workloads lists the four workloads in the order an all-workload run uses.
// The traced-pass lengths are sized so both twin passes fit the run budget
// (see README.md); the timed window is sized by -seconds.
var workloads = []workload{
	{
		name: "serve_hot", wire: true, tracedCycles: 1, build: buildHot,
		why: "cached parameterized 3-way join, zipf bindings: executor on a short hash-join/agg pipeline dominates, plan-cache guards run on every request, optimizer idle",
	},
	{
		name: "serve_fetch", wire: true, tracedCycles: 10, build: buildFetch,
		why: "filtered scan returning 9.6k-14.4k rows per reply: the server's render/encode reply path outweighs the executor, which runs a plain scan",
	},
	{
		name: "exec_tpch", wire: true, tracedCycles: 1, build: buildTPCH,
		why: "nine literal TPC-H statements, all cache hits, small replies: executor inner loops (NLJN, index, sort, agg) do nearly all the time",
	},
	{
		name: "adaptive_dmv", dmv: true, tracedCycles: 1, build: buildDMV,
		why: "the paper's 39 DMV queries through the library, compiled from scratch with about one re-optimization each: optimizer dominates, server and plan cache are bypassed",
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// paramKinds parses one parameterized statement and makes a kind per binding.
func paramKinds(cat *catalog.Catalog, label, sql string, bindings []float64) ([]kind, error) {
	q, err := sqlparse.Parse(cat, sql)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	kinds := make([]kind, len(bindings))
	for i := range bindings {
		kinds[i] = kind{name: fmt.Sprintf("%s(%g)", label, bindings[i]), sql: sql, query: q, param: &bindings[i]}
	}
	return kinds, nil
}

// buildHot: bindings 2.5..50 step 2.5 in zipf(s=1.3) proportions. Rank r
// maps to binding (7r+9) mod 20, which spreads the hot ranks over the
// selectivity range (rank 0 is quantity 25, half of LINEITEM).
func buildHot(cat *catalog.Catalog) ([]kind, []int, error) {
	const n = 20
	bindings := make([]float64, n)
	for i := range bindings {
		bindings[i] = 2.5 * float64(i+1)
	}
	kinds, err := paramKinds(cat, "hot", stmtHot, bindings)
	if err != nil {
		return nil, nil, err
	}
	var sum float64
	for r := 1; r <= n; r++ {
		sum += math.Pow(float64(r), -1.3)
	}
	var deck []int
	for r := 0; r < n; r++ {
		copies := int(math.Round(100 * math.Pow(float64(r+1), -1.3) / sum))
		for c := 0; c < max(copies, 1); c++ {
			deck = append(deck, (7*r+9)%n)
		}
	}
	return kinds, deck, nil
}

// buildFetch: bindings 16..24 (32%-48% of LINEITEM), each equally often. The
// replies are this large so that rendering and encoding them, not the scan,
// is the largest share of the request.
func buildFetch(cat *catalog.Catalog) ([]kind, []int, error) {
	kinds, err := paramKinds(cat, "fetch", stmtFetch, []float64{16, 18, 20, 22, 24})
	if err != nil {
		return nil, nil, err
	}
	var deck []int
	for c := 0; c < 4; c++ {
		for i := range kinds {
			deck = append(deck, i)
		}
	}
	return kinds, deck, nil
}

// buildTPCH parses the nine SQL texts and asserts each is the statement
// tpch.Queries builds. A cycle gives each session the three long statements
// (Q5, Q7, Q9: 0.3-1.7 s, 98% of the cycle's time) once and the six short
// ones (0.5-20 ms) four times. The extra short copies cost no window length
// and put the median into a dense region of the latency distribution; with
// one copy each it sat on the single sample between two statements, and its
// run-to-run spread was 28%.
func buildTPCH(cat *catalog.Catalog) ([]kind, []int, error) {
	built, err := tpch.Queries(cat)
	if err != nil {
		return nil, nil, err
	}
	kinds := make([]kind, len(tpchSQL))
	var deck []int
	for i, s := range tpchSQL {
		q, err := sqlparse.Parse(cat, s.sql)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.name, err)
		}
		if got, want := plancache.Key(q), plancache.Key(built[s.name]); got != want {
			return nil, nil, fmt.Errorf("%s: SQL text parses to a different statement:\n got %s\nwant %s", s.name, got, want)
		}
		kinds[i] = kind{name: s.name, sql: s.sql, query: q}
		copies := 4 * numSessions
		if s.name == "Q5" || s.name == "Q7" || s.name == "Q9" {
			copies = numSessions
		}
		for c := 0; c < copies; c++ {
			deck = append(deck, i)
		}
	}
	return kinds, deck, nil
}

// buildDMV: the 39 generated queries, once each.
func buildDMV(cat *catalog.Catalog) ([]kind, []int, error) {
	qs, err := dmv.Queries(cat)
	if err != nil {
		return nil, nil, err
	}
	kinds := make([]kind, len(qs))
	deck := make([]int, len(qs))
	for i, qi := range qs {
		kinds[i] = kind{name: qi.Name, query: qi.Query}
		deck[i] = i
	}
	return kinds, deck, nil
}
