// Package storage implements the physical storage substrate: in-memory heap
// tables addressed by RID and B+tree indexes for equality, range and
// ordered access. The executor's access-path operators
// (table scan, index scan, index nested-loop join) are built on these.
package storage

import (
	"fmt"

	"repro/internal/schema"
	"repro/internal/types"
)

// blockRows is the number of rows one heap block holds.
const blockRows = 256

// Table is an append-only in-memory heap of rows. The slot index of a row is
// its RID; RIDs are stable for the life of the table, which is what ECDC's
// deferred-compensation side table relies on.
//
// Rows live in fixed blocks of blockRows × width datums: Insert copies a row
// into the current block, and Get and Scan hand out capacity-clipped
// sub-slices of a block, so a table holds one heap object per blockRows rows
// rather than one per row.
type Table struct {
	name   string
	schema *schema.Schema
	width  int
	blocks [][]types.Datum // every block but the last is full
	n      int
}

// NewTable creates an empty heap with the given schema.
func NewTable(name string, s *schema.Schema) *Table {
	return &Table{name: name, schema: s, width: s.Len()}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *schema.Schema { return t.schema }

// RowCount returns the number of rows in the heap.
func (t *Table) RowCount() int { return t.n }

// Insert copies a row into the heap and returns its RID; the caller may reuse
// r afterwards. The row must match the schema arity; kind checking is the
// loader's responsibility.
func (t *Table) Insert(r schema.Row) (schema.RID, error) {
	if len(r) != t.width {
		return schema.InvalidRID, fmt.Errorf("storage: row arity %d does not match schema arity %d for table %s",
			len(r), t.width, t.name)
	}
	slot := t.n % blockRows
	if slot == 0 {
		t.blocks = append(t.blocks, make([]types.Datum, blockRows*t.width))
	}
	copy(t.blocks[len(t.blocks)-1][slot*t.width:], r)
	t.n++
	return schema.RID(t.n - 1), nil
}

// MustInsert inserts a row, panicking on arity mismatch. Generators use it.
func (t *Table) MustInsert(r schema.Row) schema.RID {
	rid, err := t.Insert(r)
	if err != nil {
		panic(err)
	}
	return rid
}

// row returns the row at an in-range RID. Its capacity is clipped, so an
// append to it cannot overwrite the next row.
func (t *Table) row(i int) schema.Row {
	off := (i % blockRows) * t.width
	return t.blocks[i/blockRows][off : off+t.width : off+t.width]
}

// Get returns the row at the given RID.
func (t *Table) Get(rid schema.RID) (schema.Row, error) {
	if rid < 0 || int(rid) >= t.n {
		return nil, fmt.Errorf("storage: rid %d out of range for table %s (%d rows)", rid, t.name, t.n)
	}
	return t.row(int(rid)), nil
}

// Scan returns an iterator over all rows in RID order.
func (t *Table) Scan() *TableIterator {
	return &TableIterator{table: t}
}

// TableIterator walks a heap in RID order.
type TableIterator struct {
	table *Table
	next  int
}

// Next returns the next row and its RID, or ok=false at end of table.
func (it *TableIterator) Next() (schema.Row, schema.RID, bool) {
	if it.next >= it.table.n {
		return nil, schema.InvalidRID, false
	}
	rid := schema.RID(it.next)
	row := it.table.row(it.next)
	it.next++
	return row, rid, true
}

// Reset rewinds the iterator to its first row.
func (it *TableIterator) Reset() { it.next = 0 }
