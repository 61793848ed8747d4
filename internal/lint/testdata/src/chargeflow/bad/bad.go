// Package fixcharge is a poplint fixture: the accounting gaps the
// chargeflow rule must catch — a row-producing operator that never charges
// the meter, a CheckViolation that never marks its node, a caught
// violation that is never traced, and an untraced plan-cache invalidation.
package fixcharge

import (
	"errors"

	"repro/internal/executor"
	"repro/internal/optimizer"
	"repro/internal/pop"
)

// freeNode's NextBatch produces batches without ever reaching a Meter charge
// from NextBatch or Open: its rows are invisible to the simulated-work
// accounting.
type freeNode struct {
	stats executor.NodeStats
	out   *executor.Batch
	n     int
}

func (f *freeNode) Open() error { return nil }

func (f *freeNode) NextBatch(max int) (*executor.Batch, error) { // want chargeflow
	if f.n == 0 {
		return nil, nil
	}
	f.n--
	return f.out, nil
}

func (f *freeNode) Close() error               { return nil }
func (f *freeNode) Plan() *optimizer.Plan      { return nil }
func (f *freeNode) Stats() *executor.NodeStats { return &f.stats }
func (f *freeNode) Children() []executor.Node  { return nil }

// RaiseUnmarked constructs a CheckViolation but no NodeStats.Violated
// write is reachable: the violation vanishes from EXPLAIN ANALYZE.
func RaiseUnmarked(meta *optimizer.CheckMeta) error {
	return &executor.CheckViolation{Check: meta, Actual: 1} // want chargeflow
}

// CatchSilently extracts a violation without a reachable
// trace.CheckpointViolated emission.
func CatchSilently(err error) bool {
	var cv *executor.CheckViolation
	return errors.As(err, &cv) // want chargeflow
}

// DropQuietly invalidates a cached plan without a reachable
// trace.CacheInvalidate emission.
func DropQuietly(e *pop.Entry, cp *pop.CachedPlan) {
	e.Invalidate(cp) // want chargeflow
}
