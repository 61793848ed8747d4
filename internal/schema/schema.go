// Package schema defines table schemas, rows and row identifiers shared by
// the storage layer, the optimizer and the executor.
package schema

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// Column describes one attribute of a relation.
type Column struct {
	Name     string
	Type     types.Kind
	Nullable bool
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// New builds a schema from columns.
func New(cols ...Column) *Schema { return &Schema{Columns: cols} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// Ordinal returns the position of the named column, or -1.
func (s *Schema) Ordinal(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Col returns the column at ordinal i.
func (s *Schema) Col(i int) Column { return s.Columns[i] }

// Concat returns a schema holding this schema's columns followed by o's,
// as produced by a join.
func (s *Schema) Concat(o *Schema) *Schema {
	cols := make([]Column, 0, len(s.Columns)+len(o.Columns))
	cols = append(cols, s.Columns...)
	cols = append(cols, o.Columns...)
	return &Schema{Columns: cols}
}

// String renders the schema as "(a INTEGER, b VARCHAR)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
	}
	b.WriteByte(')')
	return b.String()
}

// Row is a tuple of datums laid out in schema order.
type Row []types.Datum

// Clone returns a copy of the row that does not alias the original's backing
// array. Datum values themselves are immutable, so a shallow element copy
// suffices.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// Concat returns a new row holding r's datums followed by o's.
func (r Row) Concat(o Row) Row {
	c := make(Row, 0, len(r)+len(o))
	c = append(c, r...)
	c = append(c, o...)
	return c
}

// String renders the row as "[1, 'x', NULL]": AppendText's bytes.
func (r Row) String() string { return string(r.AppendText(nil)) }

// AppendText appends the row's text, "[1, 'x', NULL]", to dst and returns the
// extended slice.
func (r Row) AppendText(dst []byte) []byte {
	dst = append(dst, '[')
	for i, d := range r {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = d.AppendText(dst)
	}
	return append(dst, ']')
}

// RID identifies a row within its table: the table id in the high 24 bits is
// unnecessary for this in-memory engine, so RID is simply the slot index in
// the heap. RIDs are what ECDC's deferred-compensation side table stores.
type RID int64

// InvalidRID is the RID of no row.
const InvalidRID RID = -1
