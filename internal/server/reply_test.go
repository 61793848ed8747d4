package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/schema"
	"repro/internal/types"
)

// encoderLine is the oracle for appendLine: what json.Encoder writes for r
// with its rows rendered into Rows.
func encoderLine(t *testing.T, r Response) []byte {
	t.Helper()
	if len(r.rows) > 0 {
		r.Rows = make([]string, len(r.rows))
		for i, row := range r.rows {
			r.Rows[i] = row.String()
		}
	}
	r.rows = nil
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(r); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestAppendLineMatchesEncoder pins appendLine to encoding/json byte for
// byte: HTML-sensitive and control characters, quotes, backslashes, non-ASCII
// and invalid UTF-8, the line separators JSON escapes, floats on both sides of
// the encoder's exponent cut-offs, and error and text replies.
func TestAppendLineMatchesEncoder(t *testing.T) {
	str := func(ss ...string) []schema.Row {
		rows := make([]schema.Row, len(ss))
		for i, s := range ss {
			rows[i] = schema.Row{types.NewInt(int64(i)), types.NewString(s)}
		}
		return rows
	}
	ok := func(rows []schema.Row) Response {
		return Response{ID: 7, OK: true, RowCount: len(rows), Work: 12.5, WaitNS: 3, ElapsedNS: 99, rows: rows}
	}
	cases := []struct {
		name string
		resp Response
	}{
		{"html", ok(str("<a&b>", "x>y"))},
		{"quote", ok(str(`say "hi"`))},
		{"backslash", ok(str(`a\b`, `\`))},
		{"newline", ok(str("a\nb", "tab\tcr\r", "\x00\x1f"))},
		{"e-acute", ok(str("café", "naïve"))},
		{"invalid utf8", ok(str("bad\xffbyte", "\xc3"))},
		{"line separators", ok(str("a\u2028b", "c\u2029d"))},
		{"clean and escaped", ok(str("plain", "<", "plain", "é", ""))},
		{"every kind", ok([]schema.Row{{
			types.Null, types.NewBool(true), types.NewBool(false), types.NewInt(math.MinInt64),
			types.NewFloat(math.Inf(-1)), types.NewFloat(math.NaN()), types.NewFloat(math.Copysign(0, -1)),
			types.NewFloat(6.344242681976215e+08), types.MakeDate(1998, time.September, 2), types.NewDate(-800000),
		}})},
		{"empty row", ok([]schema.Row{{}})},
		{"no rows", ok([]schema.Row{})},
		{"work tiny", Response{ID: 1, OK: true, Work: 1e-9, rows: str("x")}},
		{"work huge", Response{ID: 1, OK: true, Work: 1e21, rows: str("x")}},
		{"cache flags", Response{ID: 2, OK: true, Reopts: 2, CacheHit: true, CacheInvalidated: true, rows: str("x")}},
		{"parse error", errResponse(3, CodeParse, errors.New(`sqlparse: unexpected token <eof> in "a & b"`))},
		{"draining", errResponse(4, CodeDraining, ErrDraining)},
		{"text", Response{ID: 5, OK: true, Text: "queries  0\n<metrics>\n"}},
		{"ping", Response{ID: 6, OK: true}},
	}
	for _, c := range cases {
		want := encoderLine(t, c.resp)
		got, err := c.resp.appendLine([]byte("prefix"))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
			t.Errorf("%s:\ngot  %s\nwant prefix%s", c.name, got, want)
		}
	}
}

// fetchReply is a serve_fetch-sized reply: the 12,000 lineitem rows of SF
// 0.002 TPC-H, projected to that workload's five columns (two ints, two
// floats, a date).
func fetchReply(tb testing.TB) Response {
	tb.Helper()
	lineitem, err := tpchCat(tb, 0.002).Table("lineitem")
	if err != nil {
		tb.Fatal(err)
	}
	rows := make([]schema.Row, lineitem.Heap.RowCount())
	for i := range rows {
		r, err := lineitem.Heap.Get(schema.RID(i))
		if err != nil {
			tb.Fatal(err)
		}
		rows[i] = schema.Row{r[0], r[1], r[3], r[4], r[7]}
	}
	return Response{ID: 1, OK: true, RowCount: len(rows), Work: 41146.14084339142, ElapsedNS: 27_600_000, rows: rows}
}

// BenchmarkReplyLine renders a serve_fetch-sized reply line into a fresh
// buffer, as a request does when the buffer pool is empty.
func BenchmarkReplyLine(b *testing.B) {
	resp := fetchReply(b)
	b.ReportAllocs()
	b.ResetTimer()
	var line []byte
	for i := 0; i < b.N; i++ {
		var err error
		if line, err = resp.appendLine(nil); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(line)))
}

// TestReplyLineAllocBudget: rendering a reply allocates per line, not per row
// or datum. 12,000 rows into a fresh buffer cost about 40 allocations, nearly
// all of them the buffer growing; one allocation per row would be 12,000.
func TestReplyLineAllocBudget(t *testing.T) {
	resp := fetchReply(t)
	const ceiling = 200
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := resp.appendLine(nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("appendLine: %.0f allocations for %d rows", allocs, len(resp.rows))
	if allocs > ceiling {
		t.Errorf("appendLine made %.0f allocations for %d rows, budget %d", allocs, len(resp.rows), ceiling)
	}
}
