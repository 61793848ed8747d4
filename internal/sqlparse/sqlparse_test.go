package sqlparse

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/types"
)

func testCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	users, err := c.CreateTable("users", schema.New(
		schema.Column{Name: "u_id", Type: types.KindInt},
		schema.Column{Name: "u_name", Type: types.KindString},
		schema.Column{Name: "u_age", Type: types.KindInt},
		schema.Column{Name: "u_joined", Type: types.KindDate},
	))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"ann", "bob", "carla", "dave", "erin", "frank"}
	for i := 0; i < 120; i++ {
		users.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			types.NewString(names[i%len(names)]),
			types.NewInt(int64(20 + i%40)),
			types.MakeDate(2000+i%5, 1, 1),
		})
	}
	msgs, err := c.CreateTable("msgs", schema.New(
		schema.Column{Name: "m_id", Type: types.KindInt},
		schema.Column{Name: "m_user", Type: types.KindInt},
		schema.Column{Name: "m_len", Type: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		msgs.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 120)),
			types.NewInt(int64(i % 50)),
		})
	}
	if _, err := c.CreateBTreeIndex("users_pk", "users", "u_id"); err != nil {
		t.Fatal(err)
	}
	if err := c.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return c
}

func run(t *testing.T, cat *catalog.Catalog, sql string, params ...types.Datum) []schema.Row {
	t.Helper()
	q, err := Parse(cat, sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	opt := optimizer.New(cat)
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatalf("optimize %q: %v", sql, err)
	}
	ex, err := executor.NewExecutor(cat, q, params, opt.Model.Params, &executor.Meter{})
	if err != nil {
		t.Fatal(err)
	}
	root, err := ex.Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := executor.Run(root)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return rows
}

func TestSimpleSelect(t *testing.T) {
	cat := testCatalog(t)
	rows := run(t, cat, "SELECT u_id FROM users WHERE u_id < 5")
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
}

func TestQualifiedAndBareColumns(t *testing.T) {
	cat := testCatalog(t)
	rows := run(t, cat, "SELECT u.u_name FROM users u WHERE u.u_id = 3")
	if len(rows) != 1 || rows[0][0].Str() != "dave" {
		t.Fatalf("rows = %v", rows)
	}
	// Bare unique column.
	rows = run(t, cat, "SELECT u_name FROM users WHERE u_id = 3")
	if len(rows) != 1 {
		t.Fatal("bare column resolution failed")
	}
}

func TestJoinQuery(t *testing.T) {
	cat := testCatalog(t)
	rows := run(t, cat, `SELECT u.u_name, m.m_len FROM users u, msgs m
		WHERE u.u_id = m.m_user AND m.m_id < 10`)
	if len(rows) != 10 {
		t.Fatalf("join returned %d rows", len(rows))
	}
}

func TestAggregatesAndGrouping(t *testing.T) {
	cat := testCatalog(t)
	rows := run(t, cat, `SELECT u_name, COUNT(*) AS n, SUM(u_age) AS total, AVG(u_age) AS a,
		MIN(u_age) AS lo, MAX(u_age) AS hi
		FROM users GROUP BY u_name ORDER BY u_name`)
	if len(rows) != 6 {
		t.Fatalf("groups = %d", len(rows))
	}
	var total int64
	prev := ""
	for _, r := range rows {
		if r[0].Str() < prev {
			t.Error("not ordered")
		}
		prev = r[0].Str()
		total += r[1].Int()
	}
	if total != 120 {
		t.Errorf("counts sum to %d", total)
	}
}

func TestOrderByDescLimit(t *testing.T) {
	cat := testCatalog(t)
	rows := run(t, cat, "SELECT u_id FROM users ORDER BY u_id DESC LIMIT 3")
	if len(rows) != 3 || rows[0][0].Int() != 119 || rows[2][0].Int() != 117 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestPredicatesVariety(t *testing.T) {
	cat := testCatalog(t)
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT u_id FROM users WHERE u_name LIKE 'a%'", 20},
		{"SELECT u_id FROM users WHERE u_name NOT LIKE 'a%'", 100},
		{"SELECT u_id FROM users WHERE u_id IN (1, 2, 3)", 3},
		{"SELECT u_id FROM users WHERE u_id NOT IN (1, 2, 3) AND u_id < 10", 7},
		{"SELECT u_id FROM users WHERE u_id BETWEEN 10 AND 19", 10},
		{"SELECT u_id FROM users WHERE u_id NOT BETWEEN 10 AND 119", 10},
		{"SELECT u_id FROM users WHERE u_id < 10 OR u_id >= 115", 15},
		{"SELECT u_id FROM users WHERE NOT (u_id < 110)", 10},
		{"SELECT u_id FROM users WHERE u_name IS NULL", 0},
		{"SELECT u_id FROM users WHERE u_name IS NOT NULL AND u_id < 4", 4},
		{"SELECT u_id FROM users WHERE u_id <> 0 AND u_id <= 5", 5},
		{"SELECT u_id FROM users WHERE u_id != 0 AND u_id <= 5", 5},
		{"SELECT u_id FROM users WHERE u_joined < DATE '2001-06-15'", 48},
		{"SELECT u_id FROM users WHERE u_id * 2 = 10", 1},
		{"SELECT u_id FROM users WHERE u_id + 1 = 10", 1},
		{"SELECT u_id FROM users WHERE u_id - 1 = -1 + 10", 1},
		{"SELECT u_id FROM users WHERE u_id / 2 = 2.5", 1},
	}
	for _, c := range cases {
		rows := run(t, cat, c.sql)
		if len(rows) != c.want {
			t.Errorf("%s: got %d rows, want %d", c.sql, len(rows), c.want)
		}
	}
}

func TestParameterMarkers(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse(cat, "SELECT u_id FROM users WHERE u_id < ? AND u_age >= ?")
	if err != nil {
		t.Fatal(err)
	}
	if q.NumParams != 2 {
		t.Fatalf("NumParams = %d", q.NumParams)
	}
	rows := run(t, cat, "SELECT u_id FROM users WHERE u_id < ?", types.NewInt(7))
	if len(rows) != 7 {
		t.Fatalf("param query returned %d rows", len(rows))
	}
}

func TestStringEscapes(t *testing.T) {
	cat := testCatalog(t)
	q, err := Parse(cat, "SELECT u_id FROM users WHERE u_name = 'o''brien'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.String(), "o'brien") {
		t.Errorf("escaped string lost: %s", q.String())
	}
}

func TestParseErrors(t *testing.T) {
	cat := testCatalog(t)
	bad := []string{
		"",
		"SELECT",
		"SELECT u_id",
		"SELECT u_id FROM",
		"SELECT u_id FROM nope",
		"SELECT nope FROM users",
		"SELECT u_id FROM users WHERE",
		"SELECT u_id FROM users WHERE u_id <",
		"SELECT u_id FROM users WHERE u_id LIKE 5",
		"SELECT u_id FROM users WHERE u_id IN ()",
		"SELECT u_id FROM users WHERE u_id BETWEEN 1",
		"SELECT u_id FROM users LIMIT x",
		"SELECT u_id FROM users trailing garbage",
		"SELECT u_id FROM users u, msgs m WHERE m_id = 1 AND u_id = 1 AND id < 5", // unknown bare col
		"SELECT m_id FROM users u, msgs m WHERE u_id = m_user GROUP BY",
		"SELECT u_id FROM users WHERE u_name = 'unterminated",
		"SELECT u_id FROM users WHERE u_id @ 5",
		"SELECT u_id FROM users WHERE u_joined < DATE 'feb-1-99'",
		"SELECT COUNT( FROM users",
	}
	for _, sql := range bad {
		if _, err := Parse(cat, sql); err == nil {
			t.Errorf("expected error for %q", sql)
		}
	}
}

func TestAmbiguousBareColumn(t *testing.T) {
	c := catalog.New()
	sch := schema.New(schema.Column{Name: "id", Type: types.KindInt})
	if _, err := c.CreateTable("a", sch); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("b", sch); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(c, "SELECT id FROM a, b"); err == nil {
		t.Error("ambiguous column should error")
	}
}

func TestCountColumn(t *testing.T) {
	cat := testCatalog(t)
	rows := run(t, cat, "SELECT COUNT(u_id) FROM users WHERE u_id < 30")
	if len(rows) != 1 || rows[0][0].Int() != 30 {
		t.Fatalf("COUNT(col) = %v", rows)
	}
}

func TestNegativeNumbersAndNullLiteral(t *testing.T) {
	cat := testCatalog(t)
	rows := run(t, cat, "SELECT u_id FROM users WHERE u_id > -1 AND u_id < 2")
	if len(rows) != 2 {
		t.Fatalf("negative literal: %d rows", len(rows))
	}
	rows = run(t, cat, "SELECT u_id FROM users WHERE u_name = NULL")
	if len(rows) != 0 {
		t.Error("= NULL must match nothing")
	}
}

func TestSelectDistinct(t *testing.T) {
	cat := testCatalog(t)
	rows := run(t, cat, "SELECT DISTINCT u_name FROM users")
	if len(rows) != 6 {
		t.Fatalf("distinct names = %d, want 6", len(rows))
	}
	rows = run(t, cat, "SELECT DISTINCT u_name FROM users ORDER BY u_name DESC LIMIT 2")
	if len(rows) != 2 || rows[0][0].Str() != "frank" {
		t.Fatalf("distinct+order+limit = %v", rows)
	}
	// DISTINCT over a join.
	rows = run(t, cat, `SELECT DISTINCT u.u_name FROM users u, msgs m WHERE u.u_id = m.m_user`)
	if len(rows) != 6 {
		t.Fatalf("distinct over join = %d rows", len(rows))
	}
	// Rendering round-trips the keyword.
	q, err := Parse(cat, "SELECT DISTINCT u_name FROM users")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.String(), "DISTINCT") {
		t.Error("DISTINCT lost in rendering")
	}
}

// chainSQL joins n copies of msgs in a chain: t0.m_user = t1.m_id, and so on.
func chainSQL(n int) string {
	from, where := make([]string, n), make([]string, n-1)
	for i := range from {
		from[i] = fmt.Sprintf("msgs t%d", i)
	}
	for i := range where {
		where[i] = fmt.Sprintf("t%d.m_user = t%d.m_id", i, i+1)
	}
	return "SELECT t0.m_len FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
}

// TestTableLimit: table sets are 64-bit masks, so a 65-table FROM list is
// refused with an error naming the limit, and a 64-table one still plans
// every table.
func TestTableLimit(t *testing.T) {
	cat := testCatalog(t)
	if _, err := Parse(cat, chainSQL(65)); err == nil || !strings.Contains(err.Error(), "limit is 64") {
		t.Fatalf("65 tables: err = %v, want the 64-table limit", err)
	}
	q, err := Parse(cat, chainSQL(64))
	if err != nil {
		t.Fatal(err)
	}
	p, err := optimizer.New(cat).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if text := optimizer.Explain(p, q); !strings.Contains(text, "(t0)") || !strings.Contains(text, "(t63)") {
		t.Fatalf("64-table plan lacks a table:\n%s", text)
	}
}
