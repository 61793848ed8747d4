// Package fixbatch is a poplint fixture: row-level aliases of an ephemeral
// *executor.Batch escaping the pull loop — every store here keeps slab-backed
// memory alive past the next pull, which batchescape must catch.
package fixbatch

import (
	"sync"

	"repro/internal/executor"
	"repro/internal/schema"
	"repro/internal/types"
)

// puller produces ephemeral batches, like a child operator: each call
// invalidates the rows of the previous result.
type puller interface {
	pull() *executor.Batch
}

// lastRow and lastRows are package-level stores that outlive any pull loop.
var lastRow schema.Row

var lastRows []schema.Row

// sink outlives the pull loop; its fields must only hold deep copies.
type sink struct {
	last  schema.Row
	byKey map[string]schema.Row
	dat   *types.Datum
}

// fieldStore stashes a row header from a foreign batch into a field.
func (s *sink) fieldStore(p puller) {
	b := p.pull()
	if b.Len() > 0 {
		s.last = b.Rows[0] // want batchescape
	}
}

// pkgStore retains a row in a package variable.
func pkgStore(p puller) {
	b := p.pull()
	lastRow = b.Rows[0] // want batchescape
}

// mapStore writes rows bound by a range over the batch into a persistent map.
func (s *sink) mapStore(p puller) {
	b := p.pull()
	for _, r := range b.Rows {
		s.byKey["k"] = r // want batchescape
	}
}

// accumulate appends foreign rows across loop iterations: the next pull
// invalidates everything gathered so far.
func accumulate(p puller) []schema.Row {
	var acc []schema.Row
	for {
		b := p.pull()
		if b == nil {
			break
		}
		acc = append(acc, b.Rows...) // want batchescape
	}
	return acc
}

// send transfers a row on a channel without cloning it first.
func send(p puller, out chan schema.Row) {
	b := p.pull()
	out <- b.Rows[0] // want batchescape
}

// spawner owns the WaitGroup joining its goroutines.
type spawner struct {
	wg sync.WaitGroup
}

// spawnCapture hands a row to a goroutine that outlives the pull iteration
// through closure capture.
func (sp *spawner) spawnCapture(p puller) {
	b := p.pull()
	row := b.Rows[0]
	sp.wg.Add(1)
	go func() {
		defer sp.wg.Done()
		lastRow = row.Clone() // want batchescape
	}()
}

// join is the WaitGroup join witness for the spawns above.
func (sp *spawner) join() {
	sp.wg.Wait()
}

// stash persists its parameter, so callers must not pass it foreign rows.
func stash(r schema.Row) {
	lastRow = r
}

// useStash forwards a foreign row to the retaining callee.
func useStash(p puller) {
	b := p.pull()
	stash(b.Rows[0]) // want batchescape
}

// fromField reads a held batch back out of a field: the holder may recycle
// it on the next pull, so its rows are foreign too.
type edge struct {
	buf *executor.Batch
}

func fromField(e *edge) {
	rows := e.buf.Rows
	lastRows = rows // want batchescape
}

// fromChan receives a batch from a channel; received batches are foreign by
// construction.
func fromChan(ch chan *executor.Batch, s *sink) {
	b := <-ch
	s.last = b.Rows[0] // want batchescape
}

// datumPtr keeps a pointer into a row's slab-backed Datum storage.
func datumPtr(p puller, s *sink) {
	b := p.pull()
	row := b.Rows[0]
	s.dat = &row[0] // want batchescape
}
