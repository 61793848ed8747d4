package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/pop"
	"repro/internal/sqlparse"
	"repro/internal/types"
)

// execQuery runs one OpQuery request for the named session: admission
// control first (this is where queued queries wait and backpressured ones
// bounce), then parse, then execution through the shared plan cache with the
// scheduler as the exchange worker gate.
func (s *Server) execQuery(ctx context.Context, session string, req Request) Response {
	start := time.Now()
	release, err := s.sched.Admit(ctx, session)
	if err != nil {
		return admitError(req.ID, err)
	}
	defer release()
	wait := time.Since(start)

	q, err := sqlparse.Parse(s.cat, strings.TrimSuffix(strings.TrimSpace(req.SQL), ";"))
	if err != nil {
		return errResponse(req.ID, CodeParse, err)
	}
	params := make([]types.Datum, 0, len(req.Params))
	for i, p := range req.Params {
		d, err := p.datum()
		if err != nil {
			return errResponse(req.ID, CodeParse, fmt.Errorf("param %d: %w", i, err))
		}
		params = append(params, d)
	}

	opts := s.options()
	if req.Planner != "" {
		st, perr := pop.StrategyByName(req.Planner)
		if perr != nil {
			return errResponse(req.ID, CodeParse, perr)
		}
		opts.Planner = st
	}
	runner := pop.NewRunner(s.cat, opts)
	runner.Cache = s.cache
	res, err := runner.Run(q, params)
	if err != nil {
		return errResponse(req.ID, CodeExec, err)
	}

	resp := Response{
		ID:               req.ID,
		OK:               true,
		RowCount:         len(res.Rows),
		Work:             res.Work,
		Reopts:           res.Reopts,
		CacheHit:         res.Cache.Hit,
		CacheInvalidated: res.Cache.Invalidated,
		WaitNS:           wait.Nanoseconds(),
		ElapsedNS:        time.Since(start).Nanoseconds(),
	}
	limit := len(res.Rows)
	if s.cfg.MaxRows > 0 && limit > s.cfg.MaxRows {
		limit = s.cfg.MaxRows
	}
	resp.rows = res.Rows[:limit]
	return resp
}

// admitError maps an admission failure to its wire response.
func admitError(id int64, err error) Response {
	var bp *BackpressureError
	switch {
	case errors.Is(err, ErrDraining):
		return errResponse(id, CodeDraining, err)
	case errors.As(err, &bp):
		return errResponse(id, CodeBackpressure, err)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return errResponse(id, CodeCanceled, err)
	}
	return errResponse(id, CodeExec, err)
}

// serveRequest dispatches one request to its operation handler. OpClose is
// handled by the transport (the response is written, then the connection
// closes); it reaches here only to produce the acknowledgement.
func (s *Server) serveRequest(ctx context.Context, session string, req Request) Response {
	switch req.Op {
	case OpQuery:
		return s.execQuery(ctx, session, req)
	case OpPing, OpClose, "":
		return Response{ID: req.ID, OK: true}
	case OpMetrics:
		var b strings.Builder
		s.reg.Snapshot().WriteText(&b)
		s.sched.Stats().WriteText(&b)
		return Response{ID: req.ID, OK: true, Text: b.String()}
	}
	return errResponse(req.ID, CodeParse, fmt.Errorf("unknown op %q", req.Op))
}
