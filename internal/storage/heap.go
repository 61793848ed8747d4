// Package storage implements the physical storage substrate: in-memory heap
// tables addressed by RID and B+tree indexes for equality, range and
// ordered access. The executor's access-path operators
// (table scan, index scan, index nested-loop join) are built on these.
package storage

import (
	"fmt"

	"repro/internal/schema"
)

// Table is an append-only in-memory heap of rows. The slot index of a row is
// its RID; RIDs are stable for the life of the table, which is what ECDC's
// deferred-compensation side table relies on.
type Table struct {
	name   string
	schema *schema.Schema
	rows   []schema.Row
}

// NewTable creates an empty heap with the given schema.
func NewTable(name string, s *schema.Schema) *Table {
	return &Table{name: name, schema: s}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *schema.Schema { return t.schema }

// RowCount returns the number of rows in the heap.
func (t *Table) RowCount() int { return len(t.rows) }

// Insert appends a row and returns its RID. The row must match the schema
// arity; kind checking is the loader's responsibility.
func (t *Table) Insert(r schema.Row) (schema.RID, error) {
	if len(r) != t.schema.Len() {
		return schema.InvalidRID, fmt.Errorf("storage: row arity %d does not match schema arity %d for table %s",
			len(r), t.schema.Len(), t.name)
	}
	t.rows = append(t.rows, r)
	return schema.RID(len(t.rows) - 1), nil
}

// MustInsert inserts a row, panicking on arity mismatch. Generators use it.
func (t *Table) MustInsert(r schema.Row) schema.RID {
	rid, err := t.Insert(r)
	if err != nil {
		panic(err)
	}
	return rid
}

// Get returns the row at the given RID.
func (t *Table) Get(rid schema.RID) (schema.Row, error) {
	if rid < 0 || int(rid) >= len(t.rows) {
		return nil, fmt.Errorf("storage: rid %d out of range for table %s (%d rows)", rid, t.name, len(t.rows))
	}
	return t.rows[rid], nil
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
	if it.next >= len(it.table.rows) {
		return nil, schema.InvalidRID, false
	}
	rid := schema.RID(it.next)
	row := it.table.rows[it.next]
	it.next++
	return row, rid, true
}

// Reset rewinds the iterator to its first row.
func (it *TableIterator) Reset() { it.next = 0 }
