package executor

// Batch-at-a-time execution: one virtual call moves a fixed-capacity vector
// of rows, amortizing the dispatch and the per-row output allocation. The
// work meter does not see the batching: operators pre-scale their per-row
// charge into integer ticks (see Ticks) and issue one AddTicks per batch.

import (
	"repro/internal/schema"
	"repro/internal/types"
)

// batchRows is the capacity of every batch the executor moves. Measured on
// the parameterized-Q10 sweep, 64 was ahead of 1 and of 1024 on wall time.
const batchRows = 64

// Batch is a fixed-capacity vector of rows moving through the executor as
// one unit. Output-producing operators (projection, joins) carve their rows
// out of a shared slab so a whole batch costs O(1) allocations instead of
// one per row.
//
// Ownership contract: a batch returned by NextBatch (and every row in it)
// is valid only until the next NextBatch call on the same producer. Until
// then the consumer owns the Rows slice — it may truncate or compact it in
// place — but a consumer that retains rows across pulls must copy them when
// Ephemeral reports true; non-ephemeral rows (heap references, materialized
// buffers) are stable and may be retained by reference.
type Batch struct {
	// Rows holds the batch's rows in production order.
	Rows []schema.Row

	slab      []types.Datum // backing storage for Alloc-carved rows
	ephemeral bool          // rows alias the slab and are reused on Reset
}

// NewBatch returns an empty batch with capacity for capRows rows.
func NewBatch(capRows int) *Batch {
	if capRows < 1 {
		capRows = 1
	}
	return &Batch{Rows: make([]schema.Row, 0, capRows)}
}

// Len returns the number of rows currently in the batch.
func (b *Batch) Len() int { return len(b.Rows) }

// Ephemeral reports whether the batch's rows alias producer-owned storage
// that the next pull reuses; such rows must be copied before being retained.
func (b *Batch) Ephemeral() bool { return b.ephemeral }

// room resolves a caller's row budget (<= 0: no preference) against the
// batch's capacity.
func (b *Batch) room(max int) int {
	if max <= 0 || max > cap(b.Rows) {
		return cap(b.Rows)
	}
	return max
}

// Reset empties the batch for refilling, keeping row and slab capacity.
func (b *Batch) Reset() {
	b.Rows = b.Rows[:0]
	b.slab = b.slab[:0]
	b.ephemeral = false
}

// Append adds a stable row (owned elsewhere) to the batch by reference.
func (b *Batch) Append(row schema.Row) { b.Rows = append(b.Rows, row) }

// Alloc appends a new row of n datums carved from the batch slab and
// returns it for the caller to fill. Alloc marks the batch ephemeral. A full
// slab is replaced by a fresh block, leaving previously carved rows on the old
// backing. A zero-width row (a join none of whose columns is read above it)
// carves nothing.
func (b *Batch) Alloc(n int) schema.Row {
	b.ephemeral = true
	if n == 0 {
		b.Rows = append(b.Rows, schema.Row{})
		return b.Rows[len(b.Rows)-1]
	}
	if len(b.slab)+n > cap(b.slab) {
		rem := cap(b.Rows) - len(b.Rows)
		if rem < 1 {
			rem = 1
		}
		b.slab = make([]types.Datum, 0, n*rem)
	}
	off := len(b.slab)
	b.slab = b.slab[:off+n]
	row := schema.Row(b.slab[off : off+n : off+n])
	b.Rows = append(b.Rows, row)
	return row
}

// cursor reads a child's batches one row at a time, for operators whose logic
// is per input row (join probes, merge). A row it returns is valid until the
// call that pulls the next batch.
type cursor struct {
	child Node
	b     *Batch
	i     int
}

// next returns the child's next row, pulling a batch of at most max rows when
// the held one is used up; ok is false at end of stream.
func (c *cursor) next(max int) (row schema.Row, ok bool, err error) {
	if c.b == nil || c.i >= c.b.Len() {
		c.b, err = c.child.NextBatch(max)
		c.i = 0
		if err != nil || c.b == nil {
			c.b = nil
			return nil, false, err
		}
	}
	c.i++
	return c.b.Rows[c.i-1], true, nil
}

// appendBatchRows appends a batch's rows to dst. Ephemeral rows alias the
// producer's reusable slab, so they are deep-copied — through one shared
// backing array for the whole batch, not one allocation per row.
func appendBatchRows(dst []schema.Row, b *Batch) []schema.Row {
	if !b.ephemeral {
		return append(dst, b.Rows...)
	}
	total := 0
	for _, r := range b.Rows {
		total += len(r)
	}
	backing := make([]types.Datum, total)
	off := 0
	for _, r := range b.Rows {
		nr := backing[off : off+len(r) : off+len(r)]
		copy(nr, r)
		dst = append(dst, schema.Row(nr))
		off += len(r)
	}
	return dst
}
