package pop

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/types"
)

// Options configures a POP run.
type Options struct {
	// Enabled turns progressive optimization on. When false, the query runs
	// its initial plan to completion, however bad.
	Enabled bool
	// Policy selects checkpoint flavors and placement constraints.
	Policy Policy
	// MaxReopts bounds the optimization↔execution oscillation; the final
	// attempt runs without checkpoints to guarantee termination (paper §7).
	MaxReopts int
	// Pipelined streams partial results to the application before a
	// violation can occur. The runner then wires ECDC compensation: rows
	// already returned are recorded in a rid side-table and the re-optimized
	// plan is anti-joined against it so no duplicates are returned.
	Pipelined bool
	// Configure customizes each optimizer instance (experiment knobs).
	Configure func(*optimizer.Optimizer)
	// Analyze turns on per-operator runtime attribution: each attempt's
	// AttemptInfo.Stats carries the merged stats tree EXPLAIN ANALYZE
	// renders. Off by default — the attribution costs one branch per work
	// charge plus a clock reading when on.
	Analyze bool
	// Trace, when non-nil, receives the statement's structured event stream
	// (see package trace): optimization rounds, checkpoint outcomes,
	// re-optimizations, and (with Analyze) per-operator stats. Nil keeps
	// every emission site on its no-op path.
	Trace trace.Recorder
	// BindParamEstimates makes every (re-)optimization during the run bind
	// the statement's parameter values for estimation (see
	// optimizer.Optimizer.ParamBindings), and scopes feedback and checkpoint
	// signatures to the bound query: a parameter-dependent edge observed under
	// one binding must not override the estimate for another binding, while
	// binding-independent subsets keep sharing entries. Off by default to
	// preserve the paper experiments' default-selectivity behavior.
	BindParamEstimates bool
	// Planner selects the planner/adaptivity strategy (see strategy.go). Nil
	// behaves exactly like DPPOP: the options run as written. Non-nil
	// strategies are folded in by Resolve, which NewRunner calls, so callers
	// only set the field.
	Planner Strategy
}

// DefaultOptions is POP as the paper's prototype defaults: enabled, LC+LCEM,
// at most three re-optimizations, non-pipelined.
func DefaultOptions() Options {
	return Options{Enabled: true, Policy: DefaultPolicy(), MaxReopts: 3}
}

// AttemptInfo records one optimization→execution round.
type AttemptInfo struct {
	Plan *optimizer.Plan
	// Optimized is the plan as the optimizer produced it, before checkpoint
	// placement — the form the plan cache stores and guards.
	Optimized *optimizer.Plan
	// Candidates is the enumeration work of the attempt's compile; zero when
	// a cache hit served the plan.
	Candidates int
	Explain    string
	Checks     int
	WorkBefore float64 // meter reading when the attempt started
	Violation  *executor.CheckViolation
	MVsCreated int
	FeedbackN  int
	// RowsReturned counts rows this attempt streamed to the application
	// (pipelined mode).
	RowsReturned int
	// Stats is the attempt's merged per-operator runtime stats tree
	// (EXPLAIN ANALYZE), collected when Options.Analyze is on — including for
	// attempts a violation cut short, where it shows how far each operator
	// got before the plan was abandoned.
	Stats *executor.StatsNode
}

// Result is the outcome of a POP run.
type Result struct {
	Rows     []schema.Row
	Work     float64 // total simulated work units across all attempts
	Reopts   int     // number of re-optimizations triggered
	Attempts []AttemptInfo
	// Cache describes how the runner's plan cache served the run; zero
	// without a cache.
	Cache ExecInfo
}

// Runner executes queries with progressive re-optimization.
type Runner struct {
	Cat  *catalog.Catalog
	Opts Options
	// Cache, when non-nil, serves and stores every statement's plans: a
	// guarded hit skips attempt 0's compile, a miss caches attempt 0's plan,
	// and a run that re-optimized replaces the violated plan. Nil runs every
	// statement from scratch.
	Cache *Cache
}

// NewRunner returns a runner over the catalog with the given options.
func NewRunner(cat *catalog.Catalog, opts Options) *Runner {
	opts = opts.Resolve()
	if opts.MaxReopts <= 0 {
		opts.MaxReopts = 3
	}
	return &Runner{Cat: cat, Opts: opts}
}

func (r *Runner) newOptimizer(fb *stats.Feedback) *optimizer.Optimizer {
	opt := optimizer.New(r.Cat)
	opt.Feedback = fb
	if r.Opts.Configure != nil {
		r.Opts.Configure(opt)
	}
	return opt
}

// statementCounter allocates distinct temp-MV namespaces so concurrent
// statements sharing a catalog never observe each other's intermediates.
var statementCounter atomic.Uint64

// fail closes a failed statement's event stream with a terminal query_error
// before propagating the error. Every abort path goes through it so the trace
// never ends on a dangling optimize_start (or silently mid-attempt) — a
// consumer, the metrics registry included, can always account the statement.
func fail(tr *stampRecorder, err error) error {
	if tr != nil {
		tr.Record(trace.Event{Kind: trace.QueryError, Err: &trace.ErrInfo{Error: err.Error()}})
	}
	return err
}

// Run compiles and executes the query, re-optimizing on CHECK violations.
// With a Cache, the run shares the statement entry's feedback, binds its
// parameters for estimation, and its verdict lands in Result.Cache.
func (r *Runner) Run(q *logical.Query, params []types.Datum) (*Result, error) {
	if r.Cache == nil {
		return r.run(q, params, nil)
	}
	c, err := r.lookup(q, params)
	if err != nil {
		return nil, err
	}
	res, err := r.run(q, params, c)
	if err != nil {
		return nil, err
	}
	if res.Reopts > 0 {
		err = r.recache(c, q, params)
	}
	res.Cache = c.info
	return res, err
}

// run is the optimize→execute loop, served by the cache when c is non-nil.
func (r *Runner) run(q *logical.Query, params []types.Datum, c *cacheRun) (*Result, error) {
	fb, bind := stats.NewFeedback(), r.Opts.BindParamEstimates
	if c != nil {
		fb, bind = c.entry.Feedback, true
	}
	meter := &executor.Meter{}
	side := executor.NewReturnedSet()
	res := &Result{}
	pol := r.Opts.Policy
	ns := fmt.Sprintf("stmt%d/", statementCounter.Add(1))
	// Paper Fig. 1: clean up this statement's temp MVs at statement end.
	defer r.Cat.DropViewsPrefixed(ns)

	// With BindParamEstimates, feedback and checkpoint signatures render the
	// bound query so parameter-dependent observations stay scoped to this
	// binding. sigQ == q otherwise — behavior is bit-identical.
	sigQ := q
	if bind && len(params) > 0 {
		sigQ = logical.BindParams(q, params)
	}

	// All statement-scoped events flow through one stamping recorder so
	// executor-side emissions carry the statement signature and the attempt
	// in flight. tr stays a typed nil pointer when tracing is off — every
	// emission below is guarded, and ex.Trace is only assigned when non-nil.
	var tr *stampRecorder
	if r.Opts.Trace != nil {
		tr = &stampRecorder{r: r.Opts.Trace, query: querySig(sigQ)}
	}

	for attempt := 0; ; attempt++ {
		if tr != nil {
			tr.attempt = attempt
		}
		opt := r.newOptimizer(fb)
		opt.MVNamespace = ns
		if bind && len(params) > 0 {
			opt.ParamBindings = params
		}
		if attempt == r.Opts.MaxReopts {
			// Termination heuristic (§7): on the last permitted attempt,
			// force reuse of the intermediate results so progress is made.
			opt.ForceMVReuse = true
		}
		var plan *optimizer.Plan
		hit := attempt == 0 && c != nil && c.info.Hit
		if hit {
			plan = c.used.Plan // guarded cache hit: skip optimization
		} else {
			if tr != nil {
				tr.Record(trace.Event{Kind: trace.OptimizeStart})
			}
			var err error
			plan, err = opt.Optimize(q)
			if err != nil {
				return nil, fail(tr, err)
			}
		}
		optimized := plan
		checks := 0
		final := !r.Opts.Enabled || attempt >= r.Opts.MaxReopts
		if !final {
			plan, checks = Place(plan, sigQ, pol)
		}
		if tr != nil && !hit {
			tr.Record(trace.Event{Kind: trace.OptimizeDone, Opt: &trace.OptInfo{
				PlanSig:    PlanSig(plan, q),
				Cost:       plan.Cost,
				Candidates: opt.EnumeratedCandidates,
				Checks:     checks,
			}})
		}
		info := AttemptInfo{
			Plan:       plan,
			Optimized:  optimized,
			Candidates: opt.EnumeratedCandidates,
			Explain:    optimizer.Explain(plan, q),
			Checks:     checks,
			WorkBefore: meter.Work(),
		}
		if attempt == 0 && c != nil && !hit {
			r.miss(c, &info, q)
		}

		ex, err := executor.NewExecutor(r.Cat, q, params, opt.Model.Params, meter)
		if err != nil {
			return nil, fail(tr, err)
		}
		ex.Analyze = r.Opts.Analyze
		if tr != nil {
			ex.Trace = tr
		}
		root, err := ex.Build(plan)
		if err != nil {
			return nil, fail(tr, err)
		}
		if r.Opts.Pipelined {
			// The anti-join compensates against its copy of side, taken at
			// Open before any row flows, so this attempt's own rows, recorded
			// into side as they are returned, are never compensated.
			if attempt > 0 {
				root = executor.NewAntiJoin(ex, root, side)
			}
			root = executor.NewInsertRid(ex, root, side)
		}

		rows, runErr := executor.Run(root)
		info.RowsReturned = len(rows)
		if r.Opts.Pipelined {
			// Rows produced before a violation were already returned to the
			// application; keep them (compensation prevents duplicates).
			res.Rows = append(res.Rows, rows...)
		}

		var cv *executor.CheckViolation
		if runErr != nil && !errors.As(runErr, &cv) {
			if cerr := root.Close(); cerr != nil {
				runErr = errors.Join(runErr, cerr)
			}
			return nil, fail(tr, runErr)
		}
		if cv == nil {
			// Completed.
			if !r.Opts.Pipelined {
				res.Rows = rows
			}
			if r.Opts.Analyze {
				info.Stats = executor.CollectStats(root, ex.Cost)
			}
			res.Attempts = append(res.Attempts, info)
			res.Work = meter.Work()
			if tr != nil {
				if info.Stats != nil {
					emitOperatorStats(tr, info.Stats)
				}
				tr.Record(trace.Event{Kind: trace.QueryDone, Done: &trace.DoneInfo{
					Rows: len(res.Rows), Work: res.Work, Reopts: res.Reopts,
				}})
			}
			return res, nil
		}

		// CHECK violated: re-optimize.
		info.Violation = cv
		if r.Opts.Analyze {
			info.Stats = executor.CollectStats(root, ex.Cost)
		}
		if tr != nil {
			tr.Record(trace.Event{Kind: trace.CheckpointViolated,
				Check: executor.CheckEventInfo(cv.Check, cv.Actual, cv.Exact)})
		}
		info.MVsCreated, info.FeedbackN = r.harvest(ex, root, sigQ, fb, cv, ns)
		res.Attempts = append(res.Attempts, info)
		res.Reopts++
		if tr != nil {
			if info.Stats != nil {
				emitOperatorStats(tr, info.Stats)
			}
			tr.Record(trace.Event{Kind: trace.Reoptimize, Reopt: &trace.ReoptInfo{
				MVsCreated: info.MVsCreated, FeedbackN: info.FeedbackN,
			}})
		}
		// executor.Run already closed the tree; this second Close is the
		// idempotent safety net for wrapper nodes, and its error — previously
		// dropped — now aborts the run instead of silently re-optimizing over
		// a tree that failed to release its resources.
		if cerr := root.Close(); cerr != nil {
			return nil, fail(tr, fmt.Errorf("pop: closing violated attempt %d: %w", attempt+1, cerr))
		}
		// Charge the optimizer re-invocation (context switch, Fig. 12 gap).
		meter.Add(opt.Model.Params.ReoptInvoke)
		// A forced dummy failure applies to the initial attempt only.
		pol.FailCheckIDs = nil

		if attempt >= r.Opts.MaxReopts {
			return nil, fail(tr, fmt.Errorf("pop: re-optimization limit exceeded (%d attempts): %w",
				attempt+1, cv))
		}
	}
}

// harvest implements the two feedback channels of a violation (paper §2):
// actual cardinalities observed so far are recorded in the feedback cache,
// and completed materializations are promoted to temporary materialized
// views with exact cardinalities. A view records the layout its rows were
// materialized in (ex.RowCols), which is narrower than Cols above a join.
func (r *Runner) harvest(ex *executor.Executor, root executor.Node, q *logical.Query, fb *stats.Feedback, cv *executor.CheckViolation, ns string) (mvs, fbn int) {
	// The violated checkpoint's observation: for eager checks this is a
	// lower bound, which still guarantees a plan change because the bound
	// already exceeds the validity range (paper §3.4).
	fb.Record(cv.Check.Signature, cv.Actual)
	fbn++

	// Walk with a "whole stream" flag: a node under the inner side of an
	// NLJN is re-scanned (naive) or probed (index), so its RowsOut counter
	// does not equal its subtree's logical cardinality and must not feed
	// the cache.
	var visit func(n executor.Node, whole bool)
	visit = func(n executor.Node, whole bool) {
		p := n.Plan()
		st := n.Stats()
		if p.Tables() != 0 {
			sig := optimizer.Signature(q, p.Tables())
			if whole && st.Done && countsObservable(p.Op) {
				fb.Record(sig, st.RowsOut)
				fbn++
			}
			// Completed SORT/TEMP materializations become temp MVs, like
			// the paper's prototype.
			if m, ok := n.(executor.Materializer); ok && whole &&
				(p.Op == optimizer.OpSort || p.Op == optimizer.OpTemp) {
				if rows, done := m.Materialized(); done {
					fb.Record(sig, float64(len(rows)))
					fbn++
					mv := &catalog.MatView{
						Signature: ns + sig,
						Cols:      append([]int(nil), p.Cols...),
						RowCols:   ex.RowCols(p),
						Rows:      rows,
						Card:      float64(len(rows)),
					}
					if p.Op == optimizer.OpSort && len(p.SortKeys) == 1 && !p.SortKeys[0].Desc {
						mv.Sorted = true
						mv.OrderedCol = p.SortKeys[0].Col
					}
					r.Cat.RegisterView(mv)
					mvs++
				}
			}
		}
		for i, c := range n.Children() {
			childWhole := whole
			// The inner side of an NLJN is re-scanned per outer row: its
			// counters are not a whole-stream count.
			if p.Op == optimizer.OpNLJN && i == 1 {
				childWhole = false
			}
			visit(c, childWhole)
		}
	}
	visit(root, true)
	return mvs, fbn
}

// countsObservable reports whether an operator's RowsOut counter is a
// trustworthy edge cardinality when the stream completed.
func countsObservable(op optimizer.OpKind) bool {
	switch op {
	case optimizer.OpTableScan, optimizer.OpIndexScan,
		optimizer.OpNLJN, optimizer.OpHSJN, optimizer.OpMGJN,
		optimizer.OpSort, optimizer.OpTemp:
		return true
	default:
		return false
	}
}
