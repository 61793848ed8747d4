package pop

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
	"repro/internal/tpch"
	"repro/internal/types"
)

// TestNonBooleanCondition: a non-NULL, non-boolean value used as a condition
// (an operand of AND, OR or NOT, or a bare WHERE term, column or parameter)
// is an execution error through a plain runner and a cached one, and a
// boolean binding of the same statement still runs.
func TestNonBooleanCondition(t *testing.T) {
	cat := catalog.New()
	if err := tpch.Load(cat, tpch.Config{ScaleFactor: 0.001, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		sql    string
		params []types.Datum
		rows   int // -1: the run must fail
	}{
		{"SELECT n_name FROM nation WHERE n_nationkey AND n_regionkey = 1", nil, -1},
		{"SELECT n_name FROM nation WHERE NOT n_nationkey", nil, -1},
		{"SELECT n_name FROM nation WHERE n_nationkey OR n_regionkey = 1", nil, -1},
		{"SELECT n_name FROM nation WHERE n_nationkey", nil, -1},
		{"SELECT n_name FROM nation WHERE n_regionkey = 1 AND ?", []types.Datum{types.NewInt(1)}, -1},
		{"SELECT n_name FROM nation WHERE n_regionkey = 1 AND ?", []types.Datum{types.NewBool(true)}, 5},
		{"SELECT n_name FROM nation WHERE n_regionkey = 1", nil, 5},
	}
	cache := NewCache()
	for _, c := range cases {
		q, err := sqlparse.Parse(cat, c.sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Runner{NewRunner(cat, Options{}), cachedRunner(cache, cat, Options{})} {
			res, err := r.Run(q, c.params)
			switch {
			case c.rows < 0 && (err == nil || !strings.Contains(err.Error(), "not BOOLEAN")):
				t.Errorf("%s %v (cached %t): err %v, want a non-boolean condition error", c.sql, c.params, r.Cache != nil, err)
			case c.rows >= 0 && err != nil:
				t.Errorf("%s %v (cached %t): %v", c.sql, c.params, r.Cache != nil, err)
			case c.rows >= 0 && len(res.Rows) != c.rows:
				t.Errorf("%s %v (cached %t): %d rows, want %d", c.sql, c.params, r.Cache != nil, len(res.Rows), c.rows)
			}
		}
	}
}
