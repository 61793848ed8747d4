// Package catalog holds database metadata: tables, their indexes and
// statistics. It is written only while tables are loaded.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/types"
)

// Table bundles a heap with its schema, indexes and statistics.
type Table struct {
	Name    string
	Schema  *schema.Schema
	Heap    *storage.Table
	BTrees  []*storage.BTreeIndex
	ColStat []*stats.ColumnStats // by ordinal; nil until AnalyzeTable
}

// RowCount returns the table cardinality.
func (t *Table) RowCount() float64 { return float64(t.Heap.RowCount()) }

// BTreeOn returns the B+tree index whose key is the given ordinal, or nil.
func (t *Table) BTreeOn(ord int) *storage.BTreeIndex {
	for _, ix := range t.BTrees {
		if ix.KeyOrdinal() == ord {
			return ix
		}
	}
	return nil
}

// Stats returns the column statistics for an ordinal, or nil.
func (t *Table) Stats(ord int) *stats.ColumnStats {
	if ord < 0 || ord >= len(t.ColStat) {
		return nil
	}
	return t.ColStat[ord]
}

// Catalog is the top-level metadata store.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// CreateTable registers a new empty table with the given schema.
func (c *Catalog) CreateTable(name string, s *schema.Schema) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, dup := c.tables[key]; dup {
		return nil, fmt.Errorf("catalog: table %s already exists", name)
	}
	t := &Table{
		Name:    name,
		Schema:  s,
		Heap:    storage.NewTable(name, s),
		ColStat: make([]*stats.ColumnStats, s.Len()),
	}
	c.tables[key] = t
	return t, nil
}

// Table looks up a table by name (case-insensitive).
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: table %s does not exist", name)
	}
	return t, nil
}

// TableNames returns all table names, sorted.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// CreateBTreeIndex builds a B+tree index over one column of a table.
func (c *Catalog) CreateBTreeIndex(name, tableName, colName string) (*storage.BTreeIndex, error) {
	t, err := c.Table(tableName)
	if err != nil {
		return nil, err
	}
	ord := t.Schema.Ordinal(colName)
	if ord < 0 {
		return nil, fmt.Errorf("catalog: column %s does not exist in %s", colName, tableName)
	}
	ix, err := storage.NewBTreeIndex(name, t.Heap, ord)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	t.BTrees = append(t.BTrees, ix)
	c.mu.Unlock()
	return ix, nil
}

// AnalyzeTable (re)builds column statistics for every column of the table —
// the RUNSTATS step that optimization relies on.
func (c *Catalog) AnalyzeTable(tableName string) error {
	t, err := c.Table(tableName)
	if err != nil {
		return err
	}
	colStat := make([]*stats.ColumnStats, t.Schema.Len())
	for ord := 0; ord < t.Schema.Len(); ord++ {
		colStat[ord] = stats.BuildColumnStats(allColumnValues(t, ord), stats.DefaultBucketCount)
	}
	c.mu.Lock()
	t.ColStat = colStat
	c.mu.Unlock()
	return nil
}

// AnalyzeAll runs AnalyzeTable over every table.
func (c *Catalog) AnalyzeAll() error {
	for _, name := range c.TableNames() {
		if err := c.AnalyzeTable(name); err != nil {
			return err
		}
	}
	return nil
}

// allColumnValues gathers every value of a column, NULLs included, for the
// statistics builder.
func allColumnValues(t *Table, ord int) []types.Datum {
	out := make([]types.Datum, 0, t.Heap.RowCount())
	it := t.Heap.Scan()
	for {
		row, _, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, row[ord])
	}
}
