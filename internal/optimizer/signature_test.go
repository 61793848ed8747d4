package optimizer

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/logical"
	"repro/internal/sqlparse"
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
