// Package fixbatchgood is a poplint fixture: the sanctioned ways to keep
// data derived from an ephemeral *executor.Batch — deep copies via
// Row.Clone, owned batches from NewBatch, the held-batch pointer idiom, and
// writes that stay inside the batch's own storage. None of these may fire
// batchescape.
package fixbatchgood

import (
	"sync"

	"repro/internal/executor"
	"repro/internal/schema"
)

// puller produces ephemeral batches, like a child operator.
type puller interface {
	pull() *executor.Batch
}

var lastRow schema.Row

// sink mirrors the bad fixture's sink but only ever holds deep copies.
type sink struct {
	last  schema.Row
	byKey map[string]schema.Row
	held  *executor.Batch
}

// fieldStoreClone deep-copies the row before the store.
func (s *sink) fieldStoreClone(p puller) {
	b := p.pull()
	if b.Len() > 0 {
		s.last = b.Rows[0].Clone()
	}
}

// pkgStoreClone clones before retaining in a package variable.
func pkgStoreClone(p puller) {
	b := p.pull()
	lastRow = b.Rows[0].Clone()
}

// mapStoreClone clones each ranged row before the persistent map write.
func (s *sink) mapStoreClone(p puller) {
	b := p.pull()
	for _, r := range b.Rows {
		s.byKey["k"] = r.Clone()
	}
}

// accumulateClone clones per iteration, so earlier rows survive the next pull.
func accumulateClone(p puller) []schema.Row {
	var acc []schema.Row
	for {
		b := p.pull()
		if b == nil {
			break
		}
		for _, r := range b.Rows {
			acc = append(acc, r.Clone())
		}
	}
	return acc
}

// sendClone transfers a deep copy on the channel.
func sendClone(p puller, out chan schema.Row) {
	b := p.pull()
	out <- b.Rows[0].Clone()
}

// spawner owns the WaitGroup joining its goroutines.
type spawner struct {
	wg sync.WaitGroup
}

// spawnClone captures a cloned row, safe past the pull iteration.
func (sp *spawner) spawnClone(p puller) {
	b := p.pull()
	row := b.Rows[0].Clone()
	sp.wg.Add(1)
	go func() {
		defer sp.wg.Done()
		lastRow = row
	}()
}

// join is the WaitGroup join witness for spawnClone.
func (sp *spawner) join() {
	sp.wg.Wait()
}

// heldBatch stores the *Batch pointer itself: the held-batch idiom, where
// the field is overwritten before the next pull. Row-level aliases are the
// corruption vector, not the pointer.
func (s *sink) heldBatch(p puller) {
	s.held = p.pull()
}

// ownedCopy moves rows into a batch this function owns via NewBatch.
func ownedCopy(p puller, s *sink) {
	b := p.pull()
	nb := executor.NewBatch(b.Len())
	for _, r := range b.Rows {
		nb.Append(r.Clone())
	}
	s.held = nb
}

// trimInPlace writes into the batch's own storage: stores whose base is the
// batch stay inside the ownership unit.
func trimInPlace(p puller) {
	b := p.pull()
	if b.Len() > 1 {
		b.Rows = b.Rows[:1]
	}
}

// compactInPlace drops rows by moving the survivors down inside the batch's
// own Rows: the element stores stay inside the ownership unit too.
func compactInPlace(p puller) *executor.Batch {
	b := p.pull()
	k := 0
	for _, r := range b.Rows {
		if len(r) > 0 {
			b.Rows[k] = r
			k++
		}
	}
	b.Rows = b.Rows[:k]
	return b
}

// passThrough returns a foreign row: the pull contract itself — the caller
// inherits the ephemerality, it is not an escape.
func passThrough(p puller) schema.Row {
	b := p.pull()
	return b.Rows[0]
}

// localOnly keeps every alias in locals that die with the frame.
func localOnly(p puller) int {
	b := p.pull()
	n := 0
	for _, r := range b.Rows {
		if len(r) > 0 {
			n++
		}
	}
	return n
}
