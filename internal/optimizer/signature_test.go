package optimizer

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

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
// whose MV namespace held no view renders none for MV matching
// (planner.views). Neither may move a plan. Over every workload query under
// compileConfigs, compiling with no feedback cache, with an empty one, and
// with an empty one while a one-row view of every node of the first plan's
// join tree sits in another namespace gives %b-identical plans, ranges and
// EnumeratedCandidates. Under the reopt configuration all three compiles use
// the re-optimization's feedback, which is not empty, so only the foreign
// views vary. A view in the compile's own namespace is still offered: with
// empty feedback and ForceMVReuse, a view of the whole join is what the
// compile scans. Throughout, another goroutine registers and drops views in
// a third namespace, as concurrent statements sharing the catalog do.
func TestSignatureSkipIsExact(t *testing.T) {
	const own, other, churn = "stmt/", "other/", "churn/"
	for _, w := range compileWorkloads(t) {
		cat := w.cat
		stop := churnViews(t, cat, churn)
		for _, c := range compileConfigs {
			for _, nq := range w.queries {
				where := c.name + " " + nq.name
				// compile returns the plan and its text: candidates, then
				// every field and range in %b.
				compile := func(fb *stats.Feedback, force bool) (*Plan, string) {
					t.Helper()
					o := New(cat)
					c.cfg(o)
					o.Feedback, o.MVNamespace, o.ForceMVReuse = fb, own, force
					p, err := o.Optimize(nq.q)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					return p, fmt.Sprintf("candidates=%d\n%s", o.EnumeratedCandidates, planText(p))
				}
				var noFB, emptyFB *stats.Feedback = nil, stats.NewFeedback()
				if c.reopt {
					noFB = reoptState(t, cat, nq.q)
					emptyFB = noFB
				}
				first, want := compile(noFB, false)
				if _, got := compile(emptyFB, false); got != want {
					t.Errorf("%s: empty feedback moved the plan\nno feedback:\n%s\nempty:\n%s", where, want, got)
				}
				var root *Plan // the top of the first plan's join tree
				first.Walk(func(p *Plan) {
					if len(p.Children) == 1 {
						return // enforcers and the operators above the join tree
					}
					if root == nil {
						root = p
					}
					cat.RegisterView(&catalog.MatView{Signature: other + Signature(nq.q, p.tables), Cols: p.Cols, Card: 1})
				})
				if _, got := compile(emptyFB, false); got != want {
					t.Errorf("%s: views in another namespace moved the plan\nwithout:\n%s\nwith:\n%s", where, want, got)
				}
				cat.DropViewsPrefixed(other)
				cat.DropViewsPrefixed("T{") // reoptState's, registered with no namespace

				sig := own + Signature(nq.q, root.tables)
				cat.RegisterView(&catalog.MatView{Signature: sig, Cols: root.Cols, Card: root.Card})
				p, _ := compile(stats.NewFeedback(), true)
				var scanned []string
				p.Walk(func(n *Plan) {
					if n.Op == OpMVScan {
						scanned = append(scanned, n.MV.Signature)
					}
				})
				if len(scanned) != 1 || scanned[0] != sig {
					t.Errorf("%s: with a view of its whole join under ForceMVReuse, the plan scans %q, want [%s]", where, scanned, sig)
				}
				cat.DropViewsPrefixed(own)
			}
		}
		stop()
	}
}

// churnViews registers and drops views under prefix in cat from another
// goroutine until stop is called or the test ends; stop waits for the
// goroutine to exit and drops what it left.
func churnViews(t *testing.T, cat *catalog.Catalog, prefix string) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			cat.RegisterView(&catalog.MatView{Signature: fmt.Sprintf("%s%d", prefix, i%8), Card: 1})
			if i%8 == 7 {
				cat.DropViewsPrefixed(prefix)
			}
			time.Sleep(100 * time.Microsecond) // pace it, so that it does not take a CPU from the compiles
		}
	}()
	stop = sync.OnceFunc(func() {
		close(done)
		wg.Wait()
		cat.DropViewsPrefixed(prefix)
	})
	t.Cleanup(stop)
	return stop
}
