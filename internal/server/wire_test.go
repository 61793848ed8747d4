package server

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/schema"
	"repro/internal/types"
)

var updateWire = flag.Bool("update-wire", false,
	"rewrite testdata/wire_reply.golden from the current server")

const wireGolden = "testdata/wire_reply.golden"

// wireCase is one server configuration of the wire golden and the raw
// request lines sent to a fresh instance of it, one at a time, in order.
type wireCase struct {
	maxRows  int
	requests []string
}

// wireCases cover every reply shape: the metrics text (first, so every
// counter is still zero), a ping, rows of every datum kind, strings JSON must
// escape, a parameter binding, a zero-row result, each way a request fails,
// and the close acknowledgement. The MaxRows case pins that row_count stays
// the full count while rows is truncated.
var wireCases = []wireCase{
	{maxRows: 0, requests: []string{
		`{"id":1,"op":"metrics"}`,
		`{"id":2,"op":"ping"}`,
		`{"id":3,"op":"query","sql":"SELECT n_nationkey, n_name, n_regionkey FROM nation WHERE n_nationkey < 6 ORDER BY n_nationkey"}`,
		`{"id":4,"op":"query","sql":"SELECT l_orderkey, l_quantity, l_extendedprice, l_discount, l_shipdate, l_returnflag FROM lineitem WHERE l_orderkey <= 2 ORDER BY l_orderkey, l_extendedprice"}`,
		`{"id":5,"op":"query","sql":"SELECT COUNT(*) AS n, SUM(l_extendedprice) AS revenue, SUM(l_quantity) AS qty, MIN(l_discount) AS lo, MAX(l_shipdate) AS last FROM lineitem"}`,
		`{"id":6,"op":"query","sql":"SELECT wk_id, wk_flag, wk_label, wk_day, wk_amount FROM wire_kinds ORDER BY wk_id"}`,
		`{"id":7,"op":"query","sql":"SELECT n_name FROM nation WHERE n_nationkey = ?","params":[{"int":7}]}`,
		`{"id":8,"op":"query","sql":"SELECT wk_label FROM wire_kinds WHERE wk_id = 100"}`,
		`{"id":9,"op":"query","sql":"SELECT nope FROM nowhere"}`,
		`{"id":10,"op":"query","sql":"SELECT n_name FROM nation WHERE n_name <> 'a&b' AND"}`,
		`{"id":11,"op":"query","sql":"SELECT n_name FROM nation","planner":"no-such-planner"}`,
		`{"id":12,"op":"frobnicate"}`,
		`not json`,
		`{"id":14,"op":"close"}`,
	}},
	{maxRows: 3, requests: []string{
		`{"id":1,"op":"query","sql":"SELECT l_orderkey, l_quantity, l_extendedprice, l_discount, l_shipdate, l_returnflag FROM lineitem WHERE l_orderkey <= 2 ORDER BY l_orderkey, l_extendedprice"}`,
		`{"id":2,"op":"query","sql":"SELECT wk_id, wk_flag, wk_label, wk_day, wk_amount FROM wire_kinds ORDER BY wk_id"}`,
		`{"id":3,"op":"query","sql":"SELECT n_name FROM nation WHERE n_nationkey = ?","params":[{"int":7}]}`,
	}},
}

// wireCatalog is SF 0.002 TPC-H plus wire_kinds, a table holding every datum
// kind, NULLs, and strings the reply line must escape.
func wireCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := tpchCat(t, 0.002)
	tab, err := cat.CreateTable("wire_kinds", schema.New(
		schema.Column{Name: "wk_id", Type: types.KindInt},
		schema.Column{Name: "wk_flag", Type: types.KindBool, Nullable: true},
		schema.Column{Name: "wk_label", Type: types.KindString, Nullable: true},
		schema.Column{Name: "wk_day", Type: types.KindDate, Nullable: true},
		schema.Column{Name: "wk_amount", Type: types.KindFloat, Nullable: true},
	))
	if err != nil {
		t.Fatal(err)
	}
	i, b, s, f := types.NewInt, types.NewBool, types.NewString, types.NewFloat
	for _, r := range []schema.Row{
		{i(1), b(true), s("plain"), types.MakeDate(1998, time.September, 2), f(2.5)},
		{i(2), b(false), s("<a&b>"), types.Null, f(math.Copysign(0, -1))},
		{i(3), types.Null, s(`say "hi"`), types.NewDate(0), f(1e21)},
		{i(4), b(true), s(`back\slash`), types.MakeDate(1, time.January, 1), f(1e-9)},
		{i(5), b(false), s("line\nbreak\ttab\x01"), types.MakeDate(9999, time.December, 31), f(1e6)},
		{i(6), b(true), s("café"), types.NewDate(-1), f(123456789.125)},
		{i(7), types.Null, s("a\u2028b\u2029c"), types.MakeDate(12000, time.January, 1), types.Null},
		{i(8), b(false), s("bad\xffutf8"), types.NewDate(-800000), f(-7)},
		{i(9), types.Null, types.Null, types.Null, types.Null},
		{i(math.MinInt64), b(true), s("it's"), types.MakeDate(2000, time.February, 29), f(math.MaxFloat64)},
		{i(math.MaxInt64), b(false), s(""), types.MakeDate(0, time.March, 1), f(0.1)},
	} {
		tab.Heap.MustInsert(r)
	}
	if err := cat.AnalyzeTable("wire_kinds"); err != nil {
		t.Fatal(err)
	}
	return cat
}

// nsField matches the two server-timed fields, which the transcripts mask.
var nsField = regexp.MustCompile(`"(wait_ns|elapsed_ns)":[0-9]+`)

// wireTranscript sends wc's requests to a fresh server over TCP, or over
// HTTP POST /query when viaHTTP, and returns each reply line with its
// timings masked.
func wireTranscript(t *testing.T, wc wireCase, viaHTTP bool) []string {
	t.Helper()
	cfg := Config{
		Sched:   SchedConfig{RunSlots: 2},
		MaxRows: wc.maxRows,
	}
	if viaHTTP {
		cfg.HTTPAddr = "127.0.0.1:0"
	}
	srv := startServer(t, wireCatalog(t), cfg)
	replies := make([]string, 0, len(wc.requests))
	add := func(line []byte) {
		replies = append(replies, nsField.ReplaceAllString(string(line), `"$1":N`))
	}
	if viaHTTP {
		for _, req := range wc.requests {
			hr, err := http.Post("http://"+srv.HTTPAddr()+"/query", "application/json", strings.NewReader(req))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(hr.Body)
			if cerr := hr.Body.Close(); cerr != nil {
				t.Error(cerr)
			}
			if err != nil {
				t.Fatal(err)
			}
			add(body)
		}
		return replies
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := conn.Close(); err != nil {
			t.Error(err)
		}
	}()
	rd := bufio.NewReader(conn)
	for _, req := range wc.requests {
		if _, err := io.WriteString(conn, req+"\n"); err != nil {
			t.Fatal(err)
		}
		line, err := readLine(rd, nil)
		if err != nil {
			t.Fatalf("reply to %s: %v", req, err)
		}
		add(line)
	}
	return replies
}

// TestWireReplyGolden pins the exact bytes of every reply line the TCP
// protocol writes for wireCases, and that POST /query answers each request
// with the same line. Regenerate with -update-wire only for a change that
// means to move the wire text.
func TestWireReplyGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Reply lines of a fresh server, one request (>) and its reply (<) per pair;\n")
	b.WriteString("# wait_ns and elapsed_ns are masked. Regenerate: go test ./internal/server -run TestWireReplyGolden -update-wire\n")
	for _, wc := range wireCases {
		tcp := wireTranscript(t, wc, false)
		httpLines := wireTranscript(t, wc, true)
		fmt.Fprintf(&b, "## max_rows=%d\n", wc.maxRows)
		for i, req := range wc.requests {
			if httpLines[i] != tcp[i] {
				t.Errorf("max_rows=%d %s:\nHTTP body %s\nTCP line  %s", wc.maxRows, req, httpLines[i], tcp[i])
			}
			fmt.Fprintf(&b, "> %s\n< %s", req, tcp[i])
		}
	}
	got := []byte(b.String())
	if *updateWire {
		if err := os.WriteFile(wireGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(wireGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-wire to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s line %d:\ngot  %s\nwant %s", wireGolden, i+1, g, w)
			}
		}
	}
}
