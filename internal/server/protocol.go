package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/schema"
	"repro/internal/types"
)

// The wire protocol is line-delimited JSON over TCP: one Request object per
// line in, one Response object per line out, correlated by ID. Requests on a
// connection may be pipelined — the server executes them concurrently
// (subject to admission control) and responses may arrive out of order. The
// HTTP endpoint reuses the same two types, one Request per POST /query body.

// Code classifies the failure a Response carries; empty on success. It is
// a named type so switches over it (HTTP status mapping, client retry
// policy) fall under poplint's exhaustive rule: adding a code without
// updating every switch is a lint error, not a silent fallthrough.
type Code string

// Error codes a Response can carry; empty on success.
const (
	// CodeDraining rejects queries arriving after shutdown began.
	CodeDraining Code = "draining"
	// CodeBackpressure rejects a session whose admission-queue allowance is
	// exhausted; the client should finish in-flight queries before retrying.
	CodeBackpressure Code = "backpressure"
	// CodeParse reports a malformed request or SQL that failed to parse.
	CodeParse Code = "parse"
	// CodeExec reports an execution-time failure.
	CodeExec Code = "exec"
	// CodeCanceled reports a query abandoned because its context ended
	// (connection closed, deadline exceeded).
	CodeCanceled Code = "canceled"
)

// Request operations.
const (
	// OpQuery executes SQL (with optional parameter bindings).
	OpQuery = "query"
	// OpPing round-trips without touching the engine.
	OpPing = "ping"
	// OpMetrics returns the server's cumulative counters in Response.Text.
	OpMetrics = "metrics"
	// OpClose asks the server to close the connection after responding.
	OpClose = "close"
)

// ParamValue is one parameter binding; exactly one field should be set.
type ParamValue struct {
	Float *float64 `json:"float,omitempty"`
	Int   *int64   `json:"int,omitempty"`
	Str   *string  `json:"str,omitempty"`
}

// datum converts the wire value to an engine datum.
func (p ParamValue) datum() (types.Datum, error) {
	switch {
	case p.Float != nil:
		return types.NewFloat(*p.Float), nil
	case p.Int != nil:
		return types.NewInt(*p.Int), nil
	case p.Str != nil:
		return types.NewString(*p.Str), nil
	}
	return types.Datum{}, fmt.Errorf("empty parameter value")
}

// Request is one client message. Planner optionally names the
// planner/adaptivity strategy to run the query under (see pop.Strategies);
// empty means the server default (dp-pop), and an unknown name is rejected
// with CodeParse.
type Request struct {
	ID      int64        `json:"id"`
	Op      string       `json:"op"`
	SQL     string       `json:"sql,omitempty"`
	Params  []ParamValue `json:"params,omitempty"`
	Planner string       `json:"planner,omitempty"`
}

// Response is one server message. Work is the statement's simulated work in
// the engine's canonical units; it round-trips exactly through JSON (Go
// encodes float64 shortest-form and decodes it bit-identically), which the
// serving benchmark's work-identity check depends on.
type Response struct {
	ID    int64  `json:"id"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	Code  Code   `json:"code,omitempty"`

	RowCount int    `json:"row_count,omitempty"`
	Text     string `json:"text,omitempty"`

	Work             float64 `json:"work,omitempty"`
	Reopts           int     `json:"reopts,omitempty"`
	CacheHit         bool    `json:"cache_hit,omitempty"`
	CacheInvalidated bool    `json:"cache_invalidated,omitempty"`

	// WaitNS is time spent queued in admission control; ElapsedNS is total
	// server-side time including the wait.
	WaitNS    int64 `json:"wait_ns,omitempty"`
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`

	// Rows holds each result row's text (schema.Row.String), at most
	// Config.MaxRows of them. It is the last field: the server writes it
	// after the rest of the line, from rows.
	Rows []string `json:"rows,omitempty"`

	// rows are the result rows a server reply carries; appendLine renders
	// them as Rows, which the server leaves nil.
	rows []schema.Row
}

// errResponse builds a failure response, mapping known error types to their
// wire codes.
func errResponse(id int64, code Code, err error) Response {
	return Response{ID: id, OK: false, Error: err.Error(), Code: code}
}

// appendLine appends r's reply line to dst: exactly what json.Encoder writes
// for r with Rows[i] = rows[i].String(), newline included. Everything but the
// rows comes from json.Marshal. Each row is rendered by AppendText straight
// into the line between quotes; only a row holding a string datum is scanned
// for a byte JSON escapes, and such a row goes through json.Marshal instead.
func (r *Response) appendLine(dst []byte) ([]byte, error) {
	head, err := json.Marshal(r)
	if err != nil {
		return dst, err
	}
	if len(r.rows) == 0 {
		dst = append(dst, head...)
		return append(dst, '\n'), nil
	}
	dst = append(dst, head[:len(head)-1]...) // reopen the object
	dst = append(dst, `,"rows":[`...)
	for i, row := range r.rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		start := len(dst)
		dst = append(dst, '"')
		dst = row.AppendText(dst)
		if text := dst[start+1:]; hasString(row) && needsEscape(text) {
			quoted, _ := json.Marshal(string(text)) // a string always marshals
			dst = append(dst[:start], quoted...)
			continue
		}
		dst = append(dst, '"')
	}
	return append(dst, "]}\n"...), nil
}

// hasString reports whether row holds a string datum. Every other kind
// (NULL, booleans, ints, floats, dates, the Datum(kind=N) fallback) renders
// only ASCII bytes that JSON copies verbatim, so only such a row can need
// escaping.
func hasString(row schema.Row) bool {
	for _, d := range row {
		if d.Kind() == types.KindString {
			return true
		}
	}
	return false
}

// needsEscape reports whether encoding/json might write text other than
// verbatim inside a string.
func needsEscape(text []byte) bool {
	for _, c := range text {
		if jsonEscapes[c] {
			return true
		}
	}
	return false
}

// jsonEscapes marks the bytes encoding/json does not copy verbatim into a
// string: control characters, quote, backslash, the HTML characters it
// escapes by default, and every non-ASCII byte (it rewrites invalid UTF-8 and
// U+2028/U+2029).
var jsonEscapes = func() (t [256]bool) {
	for c := range t {
		t[c] = c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' || c >= 0x80
	}
	return t
}()

// readLine reads one newline-terminated line of any length from rd into
// line's storage and returns it, newline included.
func readLine(rd *bufio.Reader, line []byte) ([]byte, error) {
	line = line[:0]
	for {
		chunk, err := rd.ReadSlice('\n')
		line = append(line, chunk...)
		if !errors.Is(err, bufio.ErrBufferFull) {
			return line, err
		}
	}
}

// lineBufs recycles reply-line buffers across requests and connections.
var lineBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeLine writes r's reply line to w in one Write; TCP and HTTP replies
// both go through it.
func writeLine(w io.Writer, r *Response) error {
	buf := lineBufs.Get().(*[]byte)
	line, err := r.appendLine((*buf)[:0])
	if err == nil {
		_, err = w.Write(line)
	}
	*buf = line
	lineBufs.Put(buf)
	return err
}
