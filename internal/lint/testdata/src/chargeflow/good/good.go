// Package fixchargegood is a poplint fixture: complete accounting the
// chargeflow rule must accept — a charge reached through two helper calls,
// a never-producing stub owing no charge, an Open-charging materializer,
// and violation/invalidation paths paired with their trace emissions.
package fixchargegood

import (
	"errors"
	"math"

	"repro/internal/executor"
	"repro/internal/optimizer"
	"repro/internal/pop"
	"repro/internal/schema"
	"repro/internal/trace"
)

// meteredNode charges every delivered batch, pre-scaled, through a helper
// two calls deep — the interprocedural reach the rule exists to see.
type meteredNode struct {
	stats executor.NodeStats
	meter *executor.Meter
	out   *executor.Batch
	n     int
}

func (m *meteredNode) Open() error { return nil }

func (m *meteredNode) NextBatch(max int) (*executor.Batch, error) {
	if m.n == 0 {
		return nil, nil
	}
	m.n--
	m.charge(executor.Ticks(1), int64(m.out.Len()))
	return m.out, nil
}

func (m *meteredNode) charge(t, k int64) {
	m.chargeMeter(mulTicksSat(t, k))
}
func (m *meteredNode) chargeMeter(t int64) { m.meter.AddTicks(t) }

// mulTicksSat is the saturating tick product the overflow rule accepts.
func mulTicksSat(t, k int64) int64 {
	if t <= 0 || k <= 0 {
		return 0
	}
	if t > math.MaxInt64/k {
		return math.MaxInt64
	}
	return t * k
}

func (m *meteredNode) Close() error               { return nil }
func (m *meteredNode) Plan() *optimizer.Plan      { return nil }
func (m *meteredNode) Stats() *executor.NodeStats { return &m.stats }
func (m *meteredNode) Children() []executor.Node  { return nil }

// stubNode never produces a batch (exchange-stub idiom), so it owes no charge.
type stubNode struct{ stats executor.NodeStats }

func (s *stubNode) Open() error                            { return nil }
func (s *stubNode) NextBatch(int) (*executor.Batch, error) { return nil, nil }
func (s *stubNode) Close() error                           { return nil }
func (s *stubNode) Plan() *optimizer.Plan                  { return nil }
func (s *stubNode) Stats() *executor.NodeStats             { return &s.stats }
func (s *stubNode) Children() []executor.Node              { return nil }

// openChargerNode materializes in Open (sort/hash-agg idiom): the charge
// reachable from Open satisfies the obligation for its NextBatch.
type openChargerNode struct {
	stats executor.NodeStats
	meter *executor.Meter
	rows  []schema.Row
	out   *executor.Batch
}

func (o *openChargerNode) Open() error {
	o.meter.Add(float64(len(o.rows)))
	return nil
}

func (o *openChargerNode) NextBatch(max int) (*executor.Batch, error) {
	if len(o.rows) == 0 {
		return nil, nil
	}
	o.out.Reset()
	o.out.Append(o.rows[0])
	o.rows = o.rows[1:]
	return o.out, nil
}

func (o *openChargerNode) Close() error               { return nil }
func (o *openChargerNode) Plan() *optimizer.Plan      { return nil }
func (o *openChargerNode) Stats() *executor.NodeStats { return &o.stats }
func (o *openChargerNode) Children() []executor.Node  { return nil }

// sink is a concrete trace.Recorder, so the emit helpers below have a
// reachable Record call.
type sink struct{ events []trace.Event }

func (s *sink) Record(ev trace.Event) { s.events = append(s.events, ev) }

// emitViolated is the paired emission Catch reaches.
func emitViolated(s *sink) {
	s.Record(trace.Event{Kind: trace.CheckpointViolated})
}

// Catch extracts a violation, marks the node, and reaches the paired
// CheckpointViolated emission.
func Catch(s *sink, err error, stats *executor.NodeStats) bool {
	var cv *executor.CheckViolation
	if errors.As(err, &cv) {
		stats.Violated = true
		emitViolated(s)
		return true
	}
	return false
}

// Raise constructs the violation and marks the node in the same path.
func Raise(meta *optimizer.CheckMeta, stats *executor.NodeStats) error {
	stats.Violated = true
	return &executor.CheckViolation{Check: meta, Actual: 1}
}

// Drop invalidates and traces the invalidation.
func Drop(s *sink, e *pop.Entry, cp *pop.CachedPlan) {
	e.Invalidate(cp)
	s.Record(trace.Event{Kind: trace.CacheInvalidate})
}
