package pop

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/optimizer"
)

// A Strategy is one planner/adaptivity combination the engine can run a
// statement under: how the join order is searched (exhaustive DP vs the
// statistics-free greedy chain) crossed with how the runtime adapts
// (validity-range-guarded POP, no adaptivity at all, or unguarded
// re-optimization that re-costs at every checkpoint). Strategies compose
// with the plan cache (the strategy name is part of the cached-plan key)
// and the batch path without touching their bit-identity
// guarantees: a strategy only picks plans and checkpoint policy, never how
// a chosen plan is metered.
type Strategy interface {
	// Name is the stable identifier used on the wire, in popsql \planner, in
	// popbench output and as the plan-cache key component.
	Name() string
	// Describe returns the one-line human description shown by \planner.
	Describe() string
	// PlanConfig applies the strategy's planning-side knobs to an optimizer
	// instance. It is called for every (re-)optimization of the statement,
	// after the caller's own Configure hook.
	PlanConfig(*optimizer.Optimizer)
	// Runtime rewrites the run options with the strategy's execution-side
	// knobs (POP on/off, checkpoint policy). It sees the caller's options and
	// must not touch fields it does not own.
	Runtime(Options) Options
}

// StrategyName is the stable identifier of a built-in strategy. It is a
// named type so switches dispatching on a strategy fall under poplint's
// exhaustive rule: adding a strategy without updating every switch is a
// lint error, not a silently ignored row.
type StrategyName string

// The built-in strategy names, in canonical display order.
const (
	// NameDPPOP names the engine default: DP join ordering + guarded POP.
	NameDPPOP StrategyName = "dp-pop"
	// NameGreedyPOP names greedy join ordering + guarded POP.
	NameGreedyPOP StrategyName = "greedy-pop"
	// NameGreedyOnly names greedy join ordering with adaptivity off.
	NameGreedyOnly StrategyName = "greedy-only"
	// NameReoptUnguarded names unguarded re-optimization at every checkpoint.
	NameReoptUnguarded StrategyName = "reopt-unguarded"
)

// strategy is the shared Strategy implementation: a name, a description and
// two optional hooks.
type strategy struct {
	name    StrategyName
	desc    string
	plan    func(*optimizer.Optimizer)
	runtime func(Options) Options
}

func (s *strategy) Name() string     { return string(s.name) }
func (s *strategy) Describe() string { return s.desc }

func (s *strategy) PlanConfig(opt *optimizer.Optimizer) {
	if s.plan != nil {
		s.plan(opt)
	}
}

func (s *strategy) Runtime(o Options) Options {
	if s.runtime != nil {
		return s.runtime(o)
	}
	return o
}

// greedyOrder is the shared planning hook of the greedy strategies.
func greedyOrder(opt *optimizer.Optimizer) { opt.JoinOrder = optimizer.JoinOrderGreedy }

var (
	// DPPOP is the engine default and the paper's configuration: exhaustive
	// DP join ordering plus progressive optimization with validity-range
	// guarded checkpoints.
	DPPOP Strategy = &strategy{
		name: NameDPPOP,
		desc: "DP join ordering + POP with validity-range checkpoints (the paper's configuration)",
	}

	// GreedyPOP plans the join order with the statistics-free greedy chain
	// but keeps POP's guarded checkpoints: planning is ~constant-time, and
	// mis-orderings the heuristic causes are caught and repaired at run time.
	GreedyPOP Strategy = &strategy{
		name: NameGreedyPOP,
		desc: "statistics-free greedy join ordering + POP validity-range checkpoints",
		plan: greedyOrder,
	}

	// GreedyOnly is the greedy planner with all adaptivity off: the cheapest
	// possible planning and zero runtime safety net — the janus-datalog
	// position that statistics (and re-optimization) are unnecessary.
	GreedyOnly Strategy = &strategy{
		name: NameGreedyOnly,
		desc: "statistics-free greedy join ordering, no re-optimization",
		plan: greedyOrder,
		runtime: func(o Options) Options {
			o.Enabled = false
			return o
		},
	}

	// ReoptUnguarded is the alternate plan-based AQP strategy from the
	// "Systematic Evaluation of Plan-based Adaptive Query Processing"
	// taxonomy: mid-query re-optimization WITHOUT validity ranges. Every
	// eligible edge is checkpointed (no bounded-range requirement) and check
	// ranges degenerate to the point estimate ([est/K, est·K] with K=1, the
	// [KD98] thresholds the paper argues against), so any deviation between
	// estimate and observation triggers an unconditional re-cost. Feedback
	// makes it converge — a re-placed checkpoint whose estimate now equals
	// the observed cardinality passes — and MaxReopts still bounds the
	// oscillation.
	ReoptUnguarded Strategy = &strategy{
		name: NameReoptUnguarded,
		desc: "DP join ordering + re-optimization at every checkpoint on any estimate deviation (no validity ranges)",
		runtime: func(o Options) Options {
			o.Enabled = true
			pol := o.Policy
			pol.RequireBoundedRange = false
			pol.FixedThresholdFactor = 1
			o.Policy = pol
			return o
		},
	}
)

// Strategies returns every built-in strategy in its canonical display order.
func Strategies() []Strategy {
	return []Strategy{DPPOP, GreedyPOP, GreedyOnly, ReoptUnguarded}
}

// StrategyByName resolves a strategy identifier (as sent on the wire or
// typed at \planner). The error lists the valid names.
func StrategyByName(name string) (Strategy, error) {
	for _, s := range Strategies() {
		if s.Name() == name {
			return s, nil
		}
	}
	names := make([]string, 0, len(Strategies()))
	for _, s := range Strategies() {
		names = append(names, s.Name())
	}
	sort.Strings(names)
	return nil, fmt.Errorf("pop: unknown planner strategy %q (valid: %s)", name, strings.Join(names, ", "))
}

// Resolve folds the Planner strategy into the concrete option fields: the
// runtime rewrite is applied, and PlanConfig is chained after the caller's
// Configure hook so every optimizer the run constructs — attempts and the
// plan cache's re-cache compile alike — plans under the strategy. A nil
// Planner returns the options unchanged — the default behavior is exactly
// DPPOP. NewRunner resolves once; resolving again would chain PlanConfig
// twice.
func (o Options) Resolve() Options {
	if o.Planner == nil {
		return o
	}
	o = o.Planner.Runtime(o)
	user := o.Configure
	st := o.Planner
	o.Configure = func(opt *optimizer.Optimizer) {
		if user != nil {
			user(opt)
		}
		st.PlanConfig(opt)
	}
	return o
}
