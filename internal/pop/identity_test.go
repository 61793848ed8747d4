package pop

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dmv"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/tpch"
	"repro/internal/trace"
)

var updateIdentity = flag.Bool("update-identity", false,
	"rewrite testdata/plan_identity.golden from the current optimizer")

const identityGolden = "testdata/plan_identity.golden"

// exactPlan renders every field of the tree the executor, the plan cache or
// EXPLAIN can observe, with floats in %b so a one-ulp drift in a cost, a
// cardinality or a validity bound changes the text.
func exactPlan(b *strings.Builder, p *optimizer.Plan, depth int) {
	fmt.Fprintf(b, "%*s%s t=%d ix=%d lo=%v%t hi=%v%t ij=%t lk=%d el=%v er=%v gb=%v sk=%v lim=%d cols=%v tabs=%b ord=%d card=%b cost=%b",
		2*depth, "", p.Op, p.Table, p.IndexOrd, p.IndexLo, p.IndexLoInc, p.IndexHi, p.IndexHiInc,
		p.IndexJoin, p.LookupCol, p.EquiLeft, p.EquiRight, p.GroupBy, p.SortKeys, p.Limit,
		p.Cols, p.Tables(), p.OrderedOn(), p.Card, p.Cost)
	if p.Filter != nil {
		fmt.Fprintf(b, " filter=%s", p.Filter)
	}
	if p.JoinPred != nil {
		fmt.Fprintf(b, " jp=%s", p.JoinPred)
	}
	if p.MV != nil {
		fmt.Fprintf(b, " mv=%s sorted=%t/%d", p.MV.Signature, p.MV.Sorted, p.MV.OrderedCol)
	}
	for i := range p.Children {
		v := p.EdgeValidity(i)
		fmt.Fprintf(b, " v%d=[%b,%b]", i, v.Lo, v.Hi)
	}
	b.WriteByte('\n')
	for _, c := range p.Children {
		exactPlan(b, c, depth+1)
	}
}

// identityLines runs every query under the strategy through the POP runner,
// exactly as the adaptive_dmv workload does, and digests each attempt's
// optimizer output: attempt 0 is the cold compile, later attempts re-optimize
// against the feedback cache and temp MVs a real violated attempt left behind.
func identityLines(t *testing.T, cat *catalog.Catalog, db string, names []string, queries map[string]*logical.Query) (lines []string, texts map[string]string) {
	t.Helper()
	texts = map[string]string{}
	for _, strat := range []Strategy{DPPOP, GreedyPOP} {
		for _, name := range names {
			col := trace.NewCollector()
			opts := DefaultOptions()
			opts.Planner = strat
			opts.Trace = col
			res, err := NewRunner(cat, opts).Run(queries[name], nil)
			if err != nil {
				t.Fatalf("%s %s %s: %v", db, strat.Name(), name, err)
			}
			done := col.OfKind(trace.OptimizeDone)
			if len(done) != len(res.Attempts) {
				t.Fatalf("%s %s %s: %d optimize_done events for %d attempts", db, strat.Name(), name, len(done), len(res.Attempts))
			}
			for i, at := range res.Attempts {
				var b strings.Builder
				exactPlan(&b, at.Optimized, 0)
				key := fmt.Sprintf("%s %s %s attempt=%d", db, strat.Name(), name, i)
				texts[key] = b.String()
				lines = append(lines, fmt.Sprintf("%s candidates=%d plan=%x",
					key, done[i].Opt.Candidates, sha256.Sum256([]byte(b.String()))))
			}
		}
	}
	return lines, texts
}

// identityWorkload is one database and the statements the identity goldens run
// over it.
type identityWorkload struct {
	db      string
	cat     *catalog.Catalog
	names   []string
	queries map[string]*logical.Query
}

// identityWorkloads loads what the benchmark's adaptive_dmv and exec_tpch
// workloads run: the 39 DMV queries and the nine TPC-H statements.
func identityWorkloads(t *testing.T) []identityWorkload {
	t.Helper()
	dcat := catalog.New()
	if err := dmv.Load(dcat, dmv.Config{Scale: 0.5, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	dqs, err := dmv.Queries(dcat)
	if err != nil {
		t.Fatal(err)
	}
	dq := map[string]*logical.Query{}
	var dnames []string
	for _, qi := range dqs {
		dq[qi.Name] = qi.Query
		dnames = append(dnames, qi.Name)
	}

	tcat := catalog.New()
	if err := tpch.Load(tcat, tpch.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	tq, err := tpch.Queries(tcat)
	if err != nil {
		t.Fatal(err)
	}
	tnames := []string{"Q2", "Q3", "Q4", "Q5", "Q7", "Q8", "Q9", "Q11", "Q18"}
	return []identityWorkload{{"dmv", dcat, dnames, dq}, {"tpch", tcat, tnames, tq}}
}

// TestPlanIdentityGolden pins the optimizer's answers: for the 39 DMV queries
// and the nine TPC-H statements of the benchmark, under dp-pop and greedy-pop,
// every plan the optimizer emits on the cold and the re-optimization path —
// structure, costs, cardinalities and per-edge validity ranges to the last bit
// — and every EnumeratedCandidates count must match the golden file. Changes
// to enumeration or the crossover search may change speed, not answers.
func TestPlanIdentityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full DMV and TPC-H workloads")
	}
	var lines []string
	texts := map[string]string{}
	for _, w := range identityWorkloads(t) {
		l, tx := identityLines(t, w.cat, w.db, w.names, w.queries)
		lines = append(lines, l...)
		for k, v := range tx {
			texts[k] = v
		}
	}

	got := strings.Join(lines, "\n") + "\n"
	if *updateIdentity {
		if err := os.WriteFile(identityGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(identityGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(wantBytes) {
		return
	}
	want := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(string(wantBytes)), "\n") {
		want[l[:strings.Index(l, " candidates=")]] = l
	}
	var bad []string
	for _, l := range lines {
		key := l[:strings.Index(l, " candidates=")]
		if want[key] != l {
			bad = append(bad, key)
		}
		delete(want, key)
	}
	for key := range want {
		bad = append(bad, key+" (missing)")
	}
	sort.Strings(bad)
	t.Errorf("%d of %d optimizer outputs differ from %s: %v", len(bad), len(lines), identityGolden, bad)
	if len(bad) > 0 {
		t.Logf("first differing plan %s:\n%s", bad[0], texts[bad[0]])
	}
}
