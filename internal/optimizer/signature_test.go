package optimizer

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/logical"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/tpch"
	"repro/internal/types"
)

// signatureReference is Signature as it was first written: every conjunct
// the mask covers rendered afresh, then sorted, per mask.
func signatureReference(q *logical.Query, mask uint64) string {
	var aliases []string
	for i := range q.Tables {
		if mask&(1<<uint(i)) != 0 {
			aliases = append(aliases, q.Tables[i].Alias)
		}
	}
	sort.Strings(aliases)
	var preds []string
	for _, p := range q.Where {
		used := q.TablesUsed(p)
		if used == 0 {
			used = 1
		}
		if used&mask == used {
			preds = append(preds, predSignature(q, p))
		}
	}
	sort.Strings(preds)
	return "T{" + strings.Join(aliases, ",") + "}|P{" + strings.Join(preds, ";") + "}"
}

// TestSignatureMemoMatchesExported: the estimator's memoized signatures, the
// exported Signature that pop keys feedback, checkpoints and the plan cache
// with, and a per-mask re-render agree byte for byte on every mask of every
// DMV and TPC-H query and of serve_hot's statement with a bound parameter. A
// mismatch would silently stop feedback and MV matching.
func TestSignatureMemoMatchesExported(t *testing.T) {
	type bound struct {
		name   string
		cat    *catalog.Catalog
		q      *logical.Query
		params []types.Datum
	}
	var queries []bound
	workloads := compileWorkloads(t)
	for _, w := range workloads {
		for _, nq := range w.queries {
			queries = append(queries, bound{nq.name, w.cat, nq.q, nil})
		}
	}
	tcat := workloads[1].cat
	hot, err := sqlparse.Parse(tcat, tpch.Q10SQL)
	if err != nil {
		t.Fatal(err)
	}
	queries = append(queries, bound{"serve_hot", tcat, hot, []types.Datum{types.NewFloat(24)}})

	for _, b := range queries {
		o := New(b.cat)
		o.ParamBindings = b.params
		pl, err := o.newPlanner(b.q)
		if err != nil {
			t.Fatal(err)
		}
		estQ := b.q
		if b.params != nil {
			estQ = logical.BindParams(b.q, b.params)
		}
		full := uint64(1)<<uint(len(b.q.Tables)) - 1
		for mask := uint64(1); mask <= full; mask++ {
			memo, exported, ref := pl.est.Signature(mask), Signature(estQ, mask), signatureReference(estQ, mask)
			if memo != exported || memo != ref {
				t.Fatalf("%s mask %b:\nmemo      %s\nexported  %s\nre-render %s", b.name, mask, memo, exported, ref)
			}
			if again := pl.est.Signature(mask); again != memo {
				t.Fatalf("%s mask %b: memo returned %s, then %s", b.name, mask, memo, again)
			}
		}
		pl.arena.release()
	}
}

// TestSignatureSkipIsExact: a compile whose feedback cache was empty when it
// began renders no signature for feedback (estimator.feedbackCard), and one
// offered no views renders none for MV matching (matchMV). Neither may move a
// plan: over every workload query under compileConfigs, compiling with no
// feedback cache and with an empty one gives %b-identical plans, ranges and
// EnumeratedCandidates. Under the reopt configuration both compiles use the
// re-optimization's feedback and views. An offered view is still matched:
// with empty feedback and ForceMVReuse, a view of the whole join is what the
// compile scans.
func TestSignatureSkipIsExact(t *testing.T) {
	for _, w := range compileWorkloads(t) {
		cat := w.cat
		for _, c := range compileConfigs {
			for _, nq := range w.queries {
				where := c.name + " " + nq.name
				// compile returns the plan and its text: candidates, then
				// every field and range in %b.
				compile := func(fb *stats.Feedback, views map[string]*MatView, force bool) (*Plan, string) {
					t.Helper()
					o := New(cat)
					c.cfg(o)
					o.Feedback, o.Views, o.ForceMVReuse = fb, views, force
					p, err := o.Optimize(nq.q)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					return p, fmt.Sprintf("candidates=%d\n%s", o.EnumeratedCandidates, planText(p))
				}
				var noFB, emptyFB *stats.Feedback = nil, stats.NewFeedback()
				var views map[string]*MatView
				if c.reopt {
					noFB, views = reoptState(t, cat, nq.q)
					emptyFB = noFB
				}
				first, want := compile(noFB, views, false)
				if _, got := compile(emptyFB, views, false); got != want {
					t.Errorf("%s: empty feedback moved the plan\nno feedback:\n%s\nempty:\n%s", where, want, got)
				}
				var root *Plan // the top of the first plan's join tree
				first.Walk(func(p *Plan) {
					if root == nil && len(p.Children) != 1 {
						root = p // skip enforcers and the operators above the join tree
					}
				})
				sig := Signature(nq.q, root.tables)
				own := map[string]*MatView{sig: {Signature: sig, Cols: root.Cols, Card: root.Card}}
				p, _ := compile(stats.NewFeedback(), own, true)
				var scanned []string
				p.Walk(func(n *Plan) {
					if n.Op == OpMVScan {
						scanned = append(scanned, n.MV.Signature)
					}
				})
				if len(scanned) != 1 || scanned[0] != sig {
					t.Errorf("%s: with a view of its whole join under ForceMVReuse, the plan scans %q, want [%s]", where, scanned, sig)
				}
			}
		}
	}
}
