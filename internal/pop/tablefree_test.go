package pop

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
	"repro/internal/tpch"
	"repro/internal/types"
)

// TestTableFreeConjuncts: a WHERE conjunct that references no table — a
// constant comparison or one over parameter markers only — filters the
// result like any other, through a plain runner and a cached one, and is
// part of the statement's cache key, so a statement with one is never served
// the plan of the statement without it.
func TestTableFreeConjuncts(t *testing.T) {
	cat := catalog.New()
	if err := tpch.Load(cat, tpch.Config{ScaleFactor: 0.001, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	one, two := []types.Datum{types.NewInt(1)}, []types.Datum{types.NewInt(2)}
	cases := []struct {
		sql    string
		params []types.Datum
		rows   int
	}{
		{"SELECT n_name FROM nation WHERE n_nationkey < 5", nil, 5},
		{"SELECT n_name FROM nation WHERE n_nationkey < 5 AND 1 = 0", nil, 0},
		{"SELECT n_name FROM nation WHERE n_nationkey < 5 AND ? = 1", one, 5},
		{"SELECT n_name FROM nation WHERE n_nationkey < 5 AND ? = 1", two, 0},
		{"SELECT n_name FROM nation WHERE n_nationkey < 5 AND ? = 1", one, 5},
		{"SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey", nil, 25},
		{"SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey AND 1 = 0", nil, 0},
	}
	cache := NewCache()
	keys := map[string]string{}
	for _, c := range cases {
		q, err := sqlparse.Parse(cat, c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := keys[CacheKey(q)]; dup && prev != c.sql {
			t.Errorf("%q and %q share the cache key %s", prev, c.sql, CacheKey(q))
		}
		keys[CacheKey(q)] = c.sql
		for _, r := range []*Runner{NewRunner(cat, Options{}), cachedRunner(cache, cat, Options{})} {
			res, err := r.Run(q, c.params)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != c.rows {
				t.Errorf("%s %v (cached %t): %d rows, want %d", c.sql, c.params, r.Cache != nil, len(res.Rows), c.rows)
			}
		}
	}
}
