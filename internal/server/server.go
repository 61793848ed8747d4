package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/pop"
	"repro/internal/trace"
)

// Config configures a Server. The zero value serves on ephemeral ports with
// scheduler defaults.
type Config struct {
	// Addr is the TCP listen address for the line-JSON protocol
	// (default "127.0.0.1:0").
	Addr string
	// HTTPAddr, when non-empty, also serves POST /query, GET /metrics and
	// GET /healthz on this address.
	HTTPAddr string
	// Sched sizes the admission controller and worker pool.
	Sched SchedConfig
	// Workers is the per-query planned exchange width (the optimizer's
	// worker parameter), with or without the plan cache; the scheduler
	// clamps it at execution under contention. Default GOMAXPROCS, minimum 2
	// so exchanges exist to arbitrate; Server.Config reports the resolved
	// width.
	Workers int
	// DisableCache turns the shared plan cache off: every session runs as a
	// plain POP runner (used by the benchmark's work-identity phase).
	DisableCache bool
	// MaxRows caps rows returned per response (0 = unlimited).
	MaxRows int
	// Options, when non-nil, adjusts each execution's pop.Options after the
	// server's own wiring (test and benchmark knob: forced checkpoint
	// failures, estimation policy).
	Options func(*pop.Options)
	// TraceJSONL, when non-nil, receives every execution's trace events
	// (flushed on shutdown).
	TraceJSONL *trace.JSONL
	// DrainTimeout bounds how long Shutdown waits for in-flight queries
	// (default 30s).
	DrainTimeout time.Duration
}

// Server serves concurrent sessions over one shared catalog, plan cache and
// worker scheduler.
type Server struct {
	cfg   Config
	cat   *catalog.Catalog
	cache *pop.Cache
	reg   *metrics.Registry
	sched *Scheduler
	start time.Time

	tcpLis  net.Listener
	httpLis net.Listener
	httpSrv *http.Server

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	shutdown bool
	// A request is in flight from dispatch until its reply has been written.
	// Shutdown waits for the count to reach zero before it closes
	// connections. It is the only drain wait: every admitted query is
	// counted, and it releases its run slot before its reply is encoded.
	// closing is set once that wait starts; later requests are refused, not
	// counted.
	inflight int
	closing  bool
	replied  chan struct{} // closed when inflight reaches 0 after closing

	wg sync.WaitGroup
}

// New builds a server over the catalog. The catalog must already be loaded;
// the server never mutates it.
func New(cat *catalog.Catalog, cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers < 2 {
		cfg.Workers = 2
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	s := &Server{
		cfg:   cfg,
		cat:   cat,
		reg:   metrics.New(),
		sched: NewScheduler(cfg.Sched),
		conns: make(map[net.Conn]struct{}),
		start: time.Now(),
	}
	if !cfg.DisableCache {
		s.cache = pop.NewCache()
	}
	s.sched.Trace = s.recorder()
	return s
}

// Scheduler exposes the server's scheduler (tests and the benchmark read
// its stats).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Config reports the resolved configuration: defaults filled in and
// Workers raised to its minimum.
func (s *Server) Config() Config { return s.cfg }

// Metrics exposes the server's cumulative counters.
func (s *Server) Metrics() metrics.Snapshot { return s.reg.Snapshot() }

// recorder composes the trace sinks: the metrics registry always listens,
// the JSONL file joins when configured. The disarmed sink must not be passed
// as a typed-nil *JSONL — inside the Recorder interface it would look
// non-nil to Multi and crash on first use.
func (s *Server) recorder() trace.Recorder {
	if s.cfg.TraceJSONL != nil {
		return trace.Multi(s.reg, s.cfg.TraceJSONL)
	}
	return s.reg
}

// options assembles the pop.Options every execution runs with: POP on, the
// scheduler as the exchange worker gate, the composed trace sinks, and the
// planned width from Config.Workers.
func (s *Server) options() pop.Options {
	opts := pop.DefaultOptions()
	opts.Enabled = true
	opts.Gate = s.sched
	opts.Trace = s.recorder()
	workers := s.cfg.Workers
	opts.Configure = func(o *optimizer.Optimizer) {
		o.Model.Params.Workers = workers
	}
	if s.cfg.Options != nil {
		s.cfg.Options(&opts)
	}
	return opts
}

// Start begins listening and serving. It returns once the listeners are
// bound; serving continues on background goroutines until Shutdown.
func (s *Server) Start() error {
	lis, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.tcpLis = lis
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(lis)
	}()

	if s.cfg.HTTPAddr != "" {
		hl, err := net.Listen("tcp", s.cfg.HTTPAddr)
		if err != nil {
			if cerr := lis.Close(); cerr != nil {
				return errors.Join(err, cerr)
			}
			return err
		}
		s.httpLis = hl
		mux := http.NewServeMux()
		mux.HandleFunc("/query", s.handleHTTPQuery)
		mux.HandleFunc("/metrics", s.handleHTTPMetrics)
		mux.HandleFunc("/healthz", s.handleHTTPHealth)
		s.httpSrv = &http.Server{Handler: mux}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := s.httpSrv.Serve(hl); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "popserver: http:", err)
			}
		}()
	}
	return nil
}

// Addr reports the bound TCP address (useful with ":0").
func (s *Server) Addr() string {
	if s.tcpLis == nil {
		return ""
	}
	return s.tcpLis.Addr().String()
}

// HTTPAddr reports the bound HTTP address, or "" when HTTP is off.
func (s *Server) HTTPAddr() string {
	if s.httpLis == nil {
		return ""
	}
	return s.httpLis.Addr().String()
}

// acceptLoop accepts TCP connections until the listener closes.
func (s *Server) acceptLoop(lis net.Listener) {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			if cerr := conn.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "popserver: close:", cerr)
			}
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// beginRequest counts a dispatched request as in flight until endRequest. It
// reports false once Shutdown has stopped accepting work.
func (s *Server) beginRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return false
	}
	s.inflight++
	return true
}

// endRequest marks a counted request's reply as written.
func (s *Server) endRequest() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	if s.inflight == 0 && s.replied != nil {
		close(s.replied)
		s.replied = nil
	}
}

// dropConn unregisters and closes a connection.
func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	if err := conn.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		fmt.Fprintln(os.Stderr, "popserver: close:", err)
	}
}

// serveConn runs one TCP session: requests are read line by line and
// executed on per-request goroutines so a session can pipeline queries (the
// scheduler's per-session queue allowance is what bounds how far ahead it
// can run); responses are serialized by a write mutex. The connection's
// context is canceled when the reader exits, unblocking any queued
// admissions.
func (s *Server) serveConn(conn net.Conn) {
	defer s.dropConn(conn)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	session := conn.RemoteAddr().String()

	w := &connWriter{conn: conn}
	send := func(resp Response) {
		if err := writeLine(w, &resp); err != nil && ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
			fmt.Fprintln(os.Stderr, "popserver: write:", err)
		}
	}

	var reqWG sync.WaitGroup
	defer reqWG.Wait()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			send(errResponse(0, CodeParse, err))
			continue
		}
		if req.Op == OpClose {
			send(Response{ID: req.ID, OK: true})
			return
		}
		if !s.beginRequest() {
			send(errResponse(req.ID, CodeDraining, ErrDraining))
			continue
		}
		reqWG.Add(1)
		go func(req Request) {
			defer reqWG.Done()
			defer s.endRequest()
			send(s.serveRequest(ctx, session, req))
		}(req)
	}
}

// connWriter serializes whole reply lines onto one connection, so replies of
// pipelined requests never interleave.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
}

func (w *connWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.conn.Write(p)
}

// handleHTTPQuery serves POST /query: a Request body, a Response body.
func (s *Server) handleHTTPQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req Request
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeReply(w, http.StatusBadRequest, errResponse(0, CodeParse, err))
		return
	}
	if req.Op == "" {
		req.Op = OpQuery
	}
	if !s.beginRequest() {
		writeReply(w, http.StatusServiceUnavailable, errResponse(req.ID, CodeDraining, ErrDraining))
		return
	}
	defer s.endRequest()
	resp := s.serveRequest(r.Context(), "http:"+r.RemoteAddr, req)
	status := http.StatusOK
	switch resp.Code {
	case CodeDraining:
		status = http.StatusServiceUnavailable
	case CodeBackpressure:
		status = http.StatusTooManyRequests
	case CodeParse:
		status = http.StatusBadRequest
	case CodeExec, CodeCanceled:
		status = http.StatusInternalServerError
	}
	writeReply(w, status, resp)
}

// writeReply writes resp as an HTTP body: the same line the TCP protocol
// writes.
func writeReply(w http.ResponseWriter, status int, resp Response) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := writeLine(w, &resp); err != nil {
		fmt.Fprintln(os.Stderr, "popserver: write:", err)
	}
}

// httpMetrics is the GET /metrics payload.
type httpMetrics struct {
	Engine   metrics.Snapshot `json:"engine"`
	Sched    SchedStats       `json:"sched"`
	UptimeNS int64            `json:"uptime_ns"`
}

// handleHTTPMetrics serves GET /metrics.
func (s *Server) handleHTTPMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, httpMetrics{
		Engine:   s.reg.Snapshot(),
		Sched:    s.sched.Stats(),
		UptimeNS: time.Since(s.start).Nanoseconds(),
	})
}

// handleHTTPHealth serves GET /healthz: 200 while serving, 503 once
// draining.
func (s *Server) handleHTTPHealth(w http.ResponseWriter, r *http.Request) {
	if s.sched.Stats().Draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if _, err := io.WriteString(w, "ok\n"); err != nil {
		fmt.Fprintln(os.Stderr, "popserver: healthz:", err)
	}
}

// writeJSON encodes one JSON response body.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "popserver: write:", err)
	}
}

// Shutdown drains and stops the server: the scheduler rejects new
// admissions with ErrDraining, in-flight queries run to completion and their
// replies are written (both bounded by DrainTimeout), then listeners and
// connections close and the trace sink flushes. Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.shutdown = true
	s.mu.Unlock()

	dctx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	s.sched.Drain()

	// Every admitted query is in flight until its reply is written, so this
	// one wait covers both the queries still running and the replies of
	// those that finished (or were rejected mid-drain).
	var errs []error
	s.mu.Lock()
	s.closing = true
	var replied chan struct{}
	if s.inflight > 0 {
		replied = make(chan struct{})
		s.replied = replied
	}
	s.mu.Unlock()
	if replied != nil {
		select {
		case <-replied:
		case <-dctx.Done():
			errs = append(errs, fmt.Errorf("in-flight replies: %w", dctx.Err()))
		}
	}
	if s.tcpLis != nil {
		if err := s.tcpLis.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, err)
		}
	}
	if s.httpSrv != nil {
		if err := s.httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			errs = append(errs, err)
		}
	}
	s.mu.Lock()
	for conn := range s.conns {
		if err := conn.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, err)
		}
	}
	s.conns = make(map[net.Conn]struct{})
	s.mu.Unlock()
	s.wg.Wait()

	if s.cfg.TraceJSONL != nil {
		if err := s.cfg.TraceJSONL.Flush(); err != nil {
			errs = append(errs, fmt.Errorf("trace flush: %w", err))
		}
	}
	return errors.Join(errs...)
}
