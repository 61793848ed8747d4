package pop

// The validity-range-guarded plan cache: optimized plans are reused across parameterized executions of the same statement, with
// the paper's §2.2 validity ranges acting as reuse guards. A cached plan is
// served to a new parameter binding only when the binding's estimated
// cardinality for every guarded table subset lies inside the plan's validity
// range — the estimate is cheap (histogram lookups, no enumeration), and the
// range makes the reuse provably safe with respect to the cost model. Out of
// range, the statement is optimized in full and the new plan is inserted
// alongside the old one, so an entry accumulates range-disjoint plans: a
// parametric plan selection grown on demand. A Runner with a non-nil Cache
// runs every statement through it (see Runner.Run).

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"

	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/types"
)

// numShards spreads entries across independently locked maps so concurrent
// statements rarely contend.
const numShards = 16

// maxPlansPerEntry bounds how many range-disjoint plans one statement
// accumulates before the oldest is evicted.
const maxPlansPerEntry = 4

// CachedPlan is one guarded plan of an entry.
type CachedPlan struct {
	Plan    *optimizer.Plan   // pre-placement optimized plan (markers intact)
	Guards  []optimizer.Guard // reuse guards from the plan's validity ranges
	Explain string            // rendered plan, used for dedupe and diagnostics
}

// Entry is the cache line for one normalized statement. It owns a feedback
// cache shared by every execution of the statement (the LEO-style "learning
// for the future" channel, paper §7): actuals observed while one binding
// re-optimized inform the guards checked and the plans built for the next.
type Entry struct {
	mu    sync.Mutex
	plans []*CachedPlan

	// Feedback accumulates observed cardinalities across executions. With
	// bound signatures (Options.BindParamEstimates) parameter-dependent
	// observations stay scoped to their binding while binding-independent
	// subsets share entries.
	Feedback *stats.Feedback

	lastMissOptWork int // EnumeratedCandidates of the latest miss
}

// Rejection records one guard that turned a cached plan away: the guarded
// subset's validity range and the binding's estimate that fell outside it.
type Rejection struct {
	Guard optimizer.Guard
	Est   float64
}

// LookupDetail returns the first cached plan whose guards all accept the
// binding's estimates, or nil — the caller supplies the estimator, built over
// the bound query with this entry's feedback — plus the reuse diagnostics: for
// every cached plan the binding could not use, the first guard that rejected
// it and the out-of-range estimate. On a hit the rejections cover the plans tried
// before the accepted one; on a miss, every plan in the entry.
func (e *Entry) LookupDetail(ce *optimizer.CardEstimator) (*CachedPlan, []Rejection) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var rejs []Rejection
	for _, cp := range e.plans {
		rejected := false
		for _, g := range cp.Guards {
			if est := ce.SubsetCard(g.Tables); !g.Range.Contains(est) {
				rejs = append(rejs, Rejection{Guard: g, Est: est})
				rejected = true
				break
			}
		}
		if !rejected {
			return cp, rejs
		}
	}
	return nil, rejs
}

// Insert adds a plan, deduplicating by rendered form (a concurrent miss may
// have optimized the same binding) and evicting the oldest plan past the
// per-entry bound.
func (e *Entry) Insert(cp *CachedPlan) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, old := range e.plans {
		if old.Explain == cp.Explain {
			return
		}
	}
	e.plans = append(e.plans, cp)
	if len(e.plans) > maxPlansPerEntry {
		e.plans = append(e.plans[:0:0], e.plans[1:]...)
	}
}

// Invalidate removes the plan (matched by identity) after a runtime CHECK
// violation proved its validity ranges wrong for an in-range binding.
func (e *Entry) Invalidate(cp *CachedPlan) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, old := range e.plans {
		if old == cp {
			e.plans = append(e.plans[:i], e.plans[i+1:]...)
			return
		}
	}
}

// Plans returns a snapshot of the entry's cached plans.
func (e *Entry) Plans() []*CachedPlan {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*CachedPlan(nil), e.plans...)
}

// noteMissWork records the enumeration work a miss spent, the baseline a
// later hit's savings are measured against.
func (e *Entry) noteMissWork(candidates int) {
	e.mu.Lock()
	e.lastMissOptWork = candidates
	e.mu.Unlock()
}

// missWork returns the recorded baseline.
func (e *Entry) missWork() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastMissOptWork
}

type shard struct {
	mu      sync.RWMutex
	entries map[string]*Entry
}

// Cache is the concurrent sharded plan cache. Its verdicts are counted per
// run (Result.Cache) and, for a server, by the metrics registry.
type Cache struct {
	shards [numShards]shard
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*Entry)
	}
	return c
}

// Entry returns the cache line for the key, creating it on first use.
func (c *Cache) Entry(key string) *Entry {
	h := fnv.New64a()
	h.Write([]byte(key))
	s := &c.shards[h.Sum64()%numShards]
	s.mu.RLock()
	e := s.entries[key]
	s.mu.RUnlock()
	if e != nil {
		return e
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e = s.entries[key]; e == nil {
		e = &Entry{Feedback: stats.NewFeedback()}
		s.entries[key] = e
	}
	return e
}

// CacheStats is the cache's size: statements and the plans they hold.
type CacheStats struct {
	Entries int
	Plans   int
}

// Stats walks the cache and counts its entries and plans.
func (c *Cache) Stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		//poplint:allow maporder commutative integer sums; iteration order cannot change the totals
		for _, e := range s.entries {
			e.mu.Lock()
			st.Entries++
			st.Plans += len(e.plans)
			e.mu.Unlock()
		}
		s.mu.RUnlock()
	}
	return st
}

// CacheKey normalizes a query into its cache key. Parameter markers render as
// markers (?0, ?1, ...), so every binding of one prepared statement maps to
// the same entry; table names, aliases, predicates, the select list, grouping,
// ordering, DISTINCT and LIMIT all participate, so structurally different
// statements never collide. Runner.Run additionally suffixes the key with the
// planner-strategy name when one is set: plans from different strategies are
// different plans, so the strategy is part of cached-plan identity.
func CacheKey(q *logical.Query) string {
	var b strings.Builder
	b.WriteString("F{")
	for i, t := range q.Tables {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(t.Table)
		b.WriteByte(' ')
		b.WriteString(t.Alias)
	}
	b.WriteString("}|")
	full := uint64(1)<<uint(len(q.Tables)) - 1
	b.WriteString(optimizer.Signature(q, full))
	b.WriteString("|S{")
	for i, it := range q.Select {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(it.String())
	}
	b.WriteString("}|G{")
	for i, g := range q.GroupBy {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(g.String())
	}
	b.WriteString("}|O{")
	for i, o := range q.OrderBy {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(o.E.String())
		if o.Desc {
			b.WriteString(" desc")
		}
	}
	b.WriteByte('}')
	if q.Distinct {
		b.WriteString("|distinct")
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, "|limit=%d", q.Limit)
	}
	return b.String()
}

// cacheable rejects plans that reference statement-scoped state: a plan
// scanning a temporary materialized view (created during re-optimization) is
// dropped at statement end and must never be served to a later execution.
func cacheable(p *optimizer.Plan) bool {
	return p != nil && p.Count(optimizer.OpMVScan) == 0
}

// ExecInfo describes how the cache served one execution (Result.Cache).
type ExecInfo struct {
	Hit bool
	// OptWork is the optimization work this execution spent: candidate plans
	// costed on a miss, guard subset-estimates on a hit — directly comparable
	// since both count cost-model cardinality evaluations — plus the re-cache
	// compile's candidates after an invalidation.
	OptWork int
	// OptWorkSaved is the work a hit avoided: the entry's last full
	// optimization cost minus the guard-check cost. Zero on a miss.
	OptWorkSaved int
	// Invalidated reports that a CHECK violation fired during this execution
	// and the plan it ran (cached or fresh) was removed/replaced.
	Invalidated bool
}

// cacheRun is one statement's passage through the cache.
type cacheRun struct {
	entry *Entry
	kh    string      // key hash: the cache events' statement identity
	used  *CachedPlan // the cached plan attempt 0 runs; nil if uncacheable
	info  ExecInfo
}

// cacheEvent emits one plan-cache verdict when tracing is on. Cache events
// use the key hash as their statement identity — the cache's unit of sharing
// is the normalized statement, not one binding's signature.
func (r *Runner) cacheEvent(kind trace.Kind, kh string, ci *trace.CacheInfo) {
	if tr := r.Opts.Trace; tr != nil {
		ci.Key = kh
		tr.Record(trace.Event{Kind: kind, Query: kh, Cache: ci})
	}
}

// lookup finds the statement's entry and asks its guards whether a cached
// plan fits the binding, estimating the guarded cardinalities from
// histograms and the entry's accumulated feedback — the cheap lookup-side
// check.
func (r *Runner) lookup(q *logical.Query, params []types.Datum) (*cacheRun, error) {
	key := CacheKey(q)
	if r.Opts.Planner != nil {
		// The strategy is part of cached-plan identity: a greedy plan must
		// never serve a DP request (or vice versa), even for the same SQL.
		key += "|planner=" + r.Opts.Planner.Name()
	}
	// Keys embed whole rendered predicates, so events carry their hash.
	c := &cacheRun{entry: r.Cache.Entry(key), kh: fnvHex(key)}
	boundQ := logical.BindParams(q, params)
	ce, err := optimizer.NewCardEstimator(r.Cat, boundQ, c.entry.Feedback)
	if err != nil {
		return nil, err
	}
	cp, rejs := c.entry.LookupDetail(ce)
	if r.Opts.Trace != nil {
		for _, rej := range rejs {
			ci := &trace.CacheInfo{
				GuardSig: optimizer.Signature(boundQ, rej.Guard.Tables),
				GuardEst: rej.Est,
				RangeLo:  rej.Guard.Range.Lo,
			}
			if !math.IsInf(rej.Guard.Range.Hi, 1) {
				ci.RangeHi = trace.Float(rej.Guard.Range.Hi)
			}
			r.cacheEvent(trace.CacheGuardReject, c.kh, ci)
		}
	}
	if cp != nil {
		c.used = cp
		c.info.Hit = true
		c.info.OptWork = ce.Evals
		if saved := c.entry.missWork() - ce.Evals; saved > 0 {
			c.info.OptWorkSaved = saved
		}
		if r.Opts.Trace != nil {
			r.cacheEvent(trace.CacheHit, c.kh, &trace.CacheInfo{
				OptWork:      c.info.OptWork,
				OptWorkSaved: c.info.OptWorkSaved,
				Plans:        len(c.entry.Plans()),
			})
		}
	}
	return c, nil
}

// miss caches attempt 0's freshly optimized plan with its validity guards,
// before it executes.
func (r *Runner) miss(c *cacheRun, a *AttemptInfo, q *logical.Query) {
	c.info.OptWork = a.Candidates
	c.entry.noteMissWork(a.Candidates)
	c.used = insert(c.entry, a.Optimized, q)
	if r.Opts.Trace != nil {
		r.cacheEvent(trace.CacheMiss, c.kh, &trace.CacheInfo{
			OptWork: c.info.OptWork,
			Plans:   len(c.entry.Plans()),
		})
	}
}

// recache reacts to a run whose CHECK fired: the plan's validity ranges were
// wrong for a binding its guards accepted. It drops that plan and caches the
// one a compile with the harvested feedback now produces. The final
// attempt's plan may scan statement-scoped temp MVs, so this compile is
// MV-free — exactly the plan the next identical binding would build.
func (r *Runner) recache(c *cacheRun, q *logical.Query, params []types.Datum) error {
	c.info.Invalidated = true
	if c.used != nil {
		c.entry.Invalidate(c.used)
		if r.Opts.Trace != nil {
			r.cacheEvent(trace.CacheInvalidate, c.kh, &trace.CacheInfo{
				Plans: len(c.entry.Plans()),
			})
		}
	}
	opt := r.newOptimizer(c.entry.Feedback, nil)
	if len(params) > 0 {
		opt.ParamBindings = params
	}
	tr := r.Opts.Trace
	if tr != nil {
		tr.Record(trace.Event{Kind: trace.OptimizeStart, Query: c.kh})
	}
	plan, err := opt.Optimize(q)
	if err != nil {
		// The run just re-optimized this same query with the same feedback
		// and succeeded, so a failure here is an invariant breach worth
		// surfacing — and swallowing it would leave the OptimizeStart above
		// unpaired, skewing every consumer that correlates start/done events
		// (the metrics registry among them).
		return fmt.Errorf("plan cache: re-optimize after invalidation: %w", err)
	}
	if tr != nil {
		tr.Record(trace.Event{Kind: trace.OptimizeDone, Query: c.kh, Opt: &trace.OptInfo{
			PlanSig:    PlanSig(plan, q),
			Cost:       plan.Cost,
			Candidates: opt.EnumeratedCandidates,
		}})
	}
	// The re-cache compile is real optimizer work this execution performed;
	// without it OptWork under-reports exactly the runs where POP did the
	// most.
	c.info.OptWork += opt.EnumeratedCandidates
	insert(c.entry, plan, q)
	return nil
}

// insert caches a plan with its collected guards; uncacheable plans (temp-MV
// scans) are skipped. Returns the CachedPlan, or nil if not cached.
func insert(entry *Entry, plan *optimizer.Plan, q *logical.Query) *CachedPlan {
	if !cacheable(plan) {
		return nil
	}
	cp := &CachedPlan{
		Plan:    plan,
		Guards:  optimizer.CollectGuards(plan),
		Explain: optimizer.Explain(plan, q),
	}
	entry.Insert(cp)
	return cp
}
