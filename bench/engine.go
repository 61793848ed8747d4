package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/catalog"
	"repro/internal/dmv"
	"repro/internal/pop"
	"repro/internal/server"
	"repro/internal/tpch"
	"repro/internal/trace"
)

// numSessions is the closed loop's client count: two sessions from one
// process, each sending its next statement when the reply arrives.
const numSessions = 2

// requestDeadline bounds one request; a miss is recorded as a failed
// operation and the session moves on over a fresh connection.
const requestDeadline = 60 * time.Second

// reply is what the load generator keeps of one request. The three
// timestamps are the client-observed span boundaries: request about to be
// written, reply line fully read, reply decoded.
type reply struct {
	sent, lineRead, done time.Time

	err       error // transport failure, refusal or engine error
	rowCount  int
	rows      []string // rendered rows, kept only when asked for
	work      float64
	waitNS    int64 // server-reported; zero on the library path
	elapsedNS int64
	bytes     int // reply line length on the wire
	// usefulWork is the final attempt's work. The wire protocol does not
	// carry attempts, so there a re-optimized request counts as not useful
	// in full and the share derived from it is a lower bound.
	usefulWork float64
}

// session is one closed-loop client.
type session interface {
	// do runs one request to completion. keepRows retains the rendered rows
	// for the correctness gate.
	do(k *kind, keepRows bool) reply
	// close ends the session and waits until the peer has acknowledged.
	close() error
}

// env is one set-up system under test: loaded catalog, the server when the
// workload goes over the wire, and the open sessions.
type env struct {
	wl       *workload
	cat      *catalog.Catalog
	srv      *server.Server
	sessions []session
	kinds    []kind
	deck     []int

	loadS      float64
	rowsLoaded int64
}

// loadCatalog loads the workload's database. Data generators keep their
// package seeds (TPC-H 42 at SF 0.005, DMV 17 at scale 0.5): -seed never
// changes the data.
func loadCatalog(wl *workload) (*catalog.Catalog, error) {
	cat := catalog.New()
	if wl.dmv {
		return cat, dmv.Load(cat, dmv.Config{Scale: 0.5, Seed: 17})
	}
	return cat, tpch.Load(cat, tpch.DefaultConfig())
}

// setUp loads the data, starts the server exactly as it ships (the zero
// server.Config; rec, when non-nil, is only composed onto the server's own
// trace sinks) and opens the sessions. The warm-up pass is the caller's.
func setUp(wl *workload, rec *recorder) (*env, error) {
	e := &env{wl: wl}
	t0 := time.Now()
	cat, err := loadCatalog(wl)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	e.cat = cat
	e.loadS = time.Since(t0).Seconds()
	for _, name := range cat.TableNames() {
		t, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		e.rowsLoaded += int64(t.RowCount())
	}
	if e.kinds, e.deck, err = wl.build(cat); err != nil {
		return nil, err
	}

	if !wl.wire {
		for i := 0; i < numSessions; i++ {
			e.sessions = append(e.sessions, &libSession{cat: cat, rec: rec})
		}
		return e, nil
	}
	cfg := server.Config{}
	if rec != nil {
		// The hook runs per execution: with the recorder off a request runs
		// with exactly the server's own sinks.
		cfg.Options = func(o *pop.Options) {
			if rec.on.Load() {
				o.Trace = trace.Multi(o.Trace, rec)
			}
		}
	}
	e.srv = server.New(cat, cfg)
	if err := e.srv.Start(); err != nil {
		return nil, fmt.Errorf("server start: %w", err)
	}
	for i := 0; i < numSessions; i++ {
		s, err := dialSession(e.srv.Addr())
		if err != nil {
			return nil, errors.Join(err, e.tearDown())
		}
		e.sessions = append(e.sessions, s)
	}
	return e, nil
}

// tearDown closes and drains every session before it shuts the server down,
// so the server's in-flight/Drain race (ROADMAP item 4) cannot fail a run:
// by the time Shutdown is called no request is in flight.
func (e *env) tearDown() error {
	var errs []error
	for _, s := range e.sessions {
		if err := s.close(); err != nil {
			errs = append(errs, err)
		}
	}
	e.sessions = nil
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), requestDeadline)
		defer cancel()
		if err := e.srv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("server shutdown: %w", err))
		}
		e.srv = nil
	}
	return errors.Join(errs...)
}

// wireSession speaks the line-JSON protocol on a raw connection, so the
// benchmark sees each reply's bytes and can time its own decode apart from
// the server's reply path.
type wireSession struct {
	addr   string
	conn   net.Conn
	rd     *bufio.Reader
	line   []byte
	nextID int64
}

// wireHeader is every field of server.Response the load generator reads but
// the rows. Outside the correctness gate a reply is decoded into it alone:
// the decoder then skips the rendered rows without allocating them, which
// keeps the benchmark's own CPU and garbage out of the server's way (decoding
// 12k row strings per serve_fetch reply took 18% of the request).
type wireHeader struct {
	ID        int64       `json:"id"`
	OK        bool        `json:"ok"`
	Error     string      `json:"error"`
	Code      server.Code `json:"code"`
	RowCount  int         `json:"row_count"`
	Work      float64     `json:"work"`
	Reopts    int         `json:"reopts"`
	WaitNS    int64       `json:"wait_ns"`
	ElapsedNS int64       `json:"elapsed_ns"`
}

// wireReply is a reply decoded in full, for the correctness gate.
type wireReply struct {
	wireHeader
	Rows []string `json:"rows"`
}

// dialSession connects one wire session.
func dialSession(addr string) (*wireSession, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	return &wireSession{addr: addr, conn: conn, rd: bufio.NewReaderSize(conn, 64<<10)}, nil
}

// roundTrip writes one request line and reads one reply line into w.line.
func (w *wireSession) roundTrip(req server.Request) error {
	w.nextID++
	req.ID = w.nextID
	out, err := json.Marshal(req)
	if err != nil {
		return err
	}
	if err := w.conn.SetDeadline(time.Now().Add(requestDeadline)); err != nil {
		return err
	}
	if _, err := w.conn.Write(append(out, '\n')); err != nil {
		return err
	}
	w.line = w.line[:0]
	for {
		chunk, err := w.rd.ReadSlice('\n')
		w.line = append(w.line, chunk...)
		if err == nil {
			return nil
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return err
		}
	}
}

// do implements session.
func (w *wireSession) do(k *kind, keepRows bool) reply {
	req := server.Request{Op: server.OpQuery, SQL: k.sql}
	if k.param != nil {
		req.Params = []server.ParamValue{server.Float(*k.param)}
	}
	r := reply{sent: time.Now()}
	if err := w.roundTrip(req); err != nil {
		r.lineRead = time.Now()
		r.done = r.lineRead
		// The connection may still deliver the late reply; start over on a
		// fresh one so the next request cannot read it.
		r.err = errors.Join(fmt.Errorf("%s: %w", k.name, err), w.redial())
		return r
	}
	r.lineRead = time.Now()
	r.bytes = len(w.line)
	var resp wireReply
	var err error
	if keepRows {
		err = json.Unmarshal(w.line, &resp)
	} else {
		err = json.Unmarshal(w.line, &resp.wireHeader)
	}
	r.done = time.Now()
	switch {
	case err != nil:
		r.err = fmt.Errorf("%s: decode reply: %w", k.name, err)
	case resp.ID != w.nextID:
		r.err = fmt.Errorf("%s: reply id %d, want %d", k.name, resp.ID, w.nextID)
	case !resp.OK:
		r.err = fmt.Errorf("%s: %s (%s)", k.name, resp.Error, resp.Code)
	}
	r.rowCount = resp.RowCount
	r.rows = resp.Rows
	r.work = resp.Work
	r.waitNS = resp.WaitNS
	r.elapsedNS = resp.ElapsedNS
	if resp.Reopts == 0 {
		r.usefulWork = resp.Work
	}
	return r
}

// redial replaces a broken connection.
func (w *wireSession) redial() error {
	cerr := w.conn.Close()
	fresh, err := dialSession(w.addr)
	if err != nil {
		return errors.Join(cerr, err)
	}
	w.conn, w.rd = fresh.conn, fresh.rd
	return cerr
}

// close sends the protocol's goodbye and waits for its acknowledgement, so
// the server has nothing of this session in flight afterwards.
func (w *wireSession) close() error {
	err := w.roundTrip(server.Request{Op: server.OpClose})
	return errors.Join(err, w.conn.Close())
}

// libSession calls the engine as a library caller does: a fresh runner with
// the shipped default options per statement, compiled from scratch.
type libSession struct {
	cat *catalog.Catalog
	rec *recorder // nil outside trace mode
}

// do implements session.
func (l *libSession) do(k *kind, keepRows bool) reply {
	opts := pop.DefaultOptions()
	if l.rec != nil && l.rec.on.Load() {
		opts.Trace = l.rec
	}
	r := reply{sent: time.Now()}
	res, err := pop.NewRunner(l.cat, opts).Run(k.query, k.params())
	r.lineRead = time.Now()
	r.done = r.lineRead
	if err != nil {
		r.err = fmt.Errorf("%s: %w", k.name, err)
		return r
	}
	if r.done.Sub(r.sent) > requestDeadline {
		r.err = fmt.Errorf("%s: deadline missed", k.name)
	}
	r.rowCount = len(res.Rows)
	r.work = res.Work
	if n := len(res.Attempts); n > 0 {
		r.usefulWork = res.Work - res.Attempts[n-1].WorkBefore
	}
	if keepRows {
		r.rows = renderRows(res)
	}
	return r
}

// close implements session; a library caller holds nothing open.
func (l *libSession) close() error { return nil }

// renderRows prints result rows the way the server's reply path does, so one
// comparison serves both paths.
func renderRows(res *pop.Result) []string {
	rows := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = fmt.Sprint(row)
	}
	return rows
}
