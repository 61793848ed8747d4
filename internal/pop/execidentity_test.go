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
	"repro/internal/logical"
)

var updateExecIdentity = flag.Bool("update-exec-identity", false,
	"rewrite testdata/exec_identity.golden from the current executor")

const execIdentityGolden = "testdata/exec_identity.golden"

// execLine runs one statement through the POP loop with EXPLAIN ANALYZE on and
// renders everything about the execution that must not depend on how rows
// move between operators: the total work and every violation's observed
// cardinality in %b, the attempt sequence, a digest of the sorted result
// multiset and a digest of every attempt's per-operator stats tree.
func execLine(t *testing.T, key string, cat *catalog.Catalog, q *logical.Query, opts Options) string {
	t.Helper()
	opts.Analyze = true
	res, err := NewRunner(cat, opts).Run(q, nil)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	var viol []string
	var analyze strings.Builder
	work := fmt.Sprintf("%b", res.Work)
	for i, a := range res.Attempts {
		if v := a.Violation; v != nil {
			viol = append(viol, fmt.Sprintf("%d:#%d/%b/%t", i, v.Check.ID, v.Actual, v.Exact))
		}
		writeAttempt(&analyze, i, a, q)
	}
	text := analyze.String()
	rows := strings.Join(canon(res.Rows), "\n")
	return fmt.Sprintf("%s work=%s reopts=%d viol=%v rows=%d/%x analyze=%x",
		key, work, res.Reopts, viol, len(res.Rows),
		sha256.Sum256([]byte(rows)), sha256.Sum256([]byte(text)))
}

// TestExecIdentityGolden pins the executor's answers the way
// TestPlanIdentityGolden pins the optimizer's. The golden file is the reference
// an executor change has to reproduce: for the 39 DMV queries and the nine
// benchmark TPC-H statements under dp-pop and greedy-pop, and for the
// correlated fixture under the default (also restricted to hash joins), ECB,
// ECWC and pipelined-ECDC policies, the work total, the re-optimization count,
// each violation (check, cardinality, exactness), the result multiset and the
// EXPLAIN ANALYZE text of every attempt. Regenerate only for a change that
// means to move work totals: go test ./internal/pop -run ExecIdentity -update-exec-identity
func TestExecIdentityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full DMV and TPC-H workloads")
	}
	var lines []string
	for _, w := range identityWorkloads(t) {
		for _, strat := range []Strategy{DPPOP, GreedyPOP} {
			for _, name := range w.names {
				opts := DefaultOptions()
				opts.Planner = strat
				key := fmt.Sprintf("%s %s %s", w.db, strat.Name(), name)
				lines = append(lines, execLine(t, key, w.cat, w.queries[name], opts))
			}
		}
	}

	eager := func(set func(*Policy)) Options {
		o := DefaultOptions()
		o.Policy.LCEM = false
		set(&o.Policy)
		return o
	}
	policies := []struct {
		name     string
		opts     Options
		hashOnly bool // plan hash joins only
	}{
		{name: "default", opts: DefaultOptions()},
		{name: "default-hash", opts: DefaultOptions(), hashOnly: true},
		{name: "ecb", opts: eager(func(p *Policy) { p.ECB = true })},
		{name: "ecwc", opts: eager(func(p *Policy) { p.ECWC = true })},
		{name: "ecdc-pipelined", opts: Options{Enabled: true, MaxReopts: 3, Pipelined: true,
			Policy: Policy{ECDC: true, RequireBoundedRange: true}}},
	}
	for _, pol := range policies {
		cat := correlatedFixture(t)
		opts := pol.opts
		if pol.hashOnly {
			opts.Configure = forceHash
		}
		// The keys keep their historical "dop=1" suffix, so the golden's lines
		// stay byte-identical.
		key := fmt.Sprintf("correlated %s dop=1", pol.name)
		lines = append(lines, execLine(t, key, cat, correlatedQuery(t, cat), opts))
	}

	got := strings.Join(lines, "\n") + "\n"
	if *updateExecIdentity {
		if err := os.WriteFile(execIdentityGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(execIdentityGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(wantBytes) {
		return
	}
	want := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(string(wantBytes)), "\n") {
		want[l[:strings.Index(l, " work=")]] = l
	}
	var bad []string
	for _, l := range lines {
		key := l[:strings.Index(l, " work=")]
		if want[key] != l {
			bad = append(bad, fmt.Sprintf("%s\n  got  %s\n  want %s", key, l[len(key):], strings.TrimPrefix(want[key], key)))
		}
		delete(want, key)
	}
	for key := range want {
		bad = append(bad, key+" (missing)")
	}
	sort.Strings(bad)
	t.Errorf("%d of %d executions differ from %s:\n%s", len(bad), len(lines), execIdentityGolden, strings.Join(bad, "\n"))
}
