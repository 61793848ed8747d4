// Package logical defines the logical query representation consumed by the
// optimizer: a query block of base-table references, predicates, projections,
// grouping and ordering.
//
// Columns are identified by query-global ids. Table i's columns occupy the
// contiguous id range [base(i), base(i)+arity). Expressions at this level use
// global ids in their ColRef positions; the optimizer rewrites them to
// operator-input ordinals before execution.
package logical

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// TableRef is a base-table reference in the FROM list.
type TableRef struct {
	Table string // catalog table name
	Alias string
}

// AggKind enumerates the supported aggregate functions.
type AggKind uint8

// Aggregate kinds; AggNone marks a plain scalar projection.
const (
	AggNone AggKind = iota
	AggCount
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String returns the SQL name of the aggregate.
func (a AggKind) String() string {
	switch a {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	default:
		return ""
	}
}

// SelectItem is one output column: either a scalar expression (AggNone) or
// an aggregate over an expression.
type SelectItem struct {
	Agg  AggKind
	E    expr.Expr // nil for COUNT(*)
	Name string
}

// String renders the item for EXPLAIN.
func (s SelectItem) String() string {
	inner := "*"
	if s.E != nil {
		inner = s.E.String()
	}
	if s.Agg == AggNone {
		return inner
	}
	return fmt.Sprintf("%s(%s)", s.Agg, inner)
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	E    expr.Expr
	Desc bool
}

// Query is a resolved single-block query.
type Query struct {
	Tables  []TableRef
	Schemas []*schema.Schema // resolved schema per table ref
	Where   []expr.Expr      // conjunctive predicates over global column ids
	Select  []SelectItem
	GroupBy []expr.Expr // grouping keys (column refs)
	OrderBy []OrderItem
	Limit   int // 0 = unlimited

	// Distinct requests duplicate elimination over the select output.
	Distinct bool

	// NumParams is the number of distinct parameter markers in the query.
	NumParams int

	colBase []int
	numCols int
}

// finalize computes the global-id layout. Called by the Builder.
func (q *Query) finalize() {
	q.colBase = make([]int, len(q.Tables))
	id := 0
	for i, s := range q.Schemas {
		q.colBase[i] = id
		id += s.Len()
	}
	q.numCols = id
}

// NumColumns returns the total number of global column ids.
func (q *Query) NumColumns() int { return q.numCols }

// Base returns the first global id of table i's columns.
func (q *Query) Base(i int) int { return q.colBase[i] }

// TableOf returns the index of the table owning global column id g.
func (q *Query) TableOf(g int) int {
	i := sort.Search(len(q.colBase), func(i int) bool { return q.colBase[i] > g }) - 1
	if i < 0 || g >= q.numCols {
		return -1
	}
	return i
}

// OrdinalOf returns the within-table ordinal of global column id g.
func (q *Query) OrdinalOf(g int) int {
	t := q.TableOf(g)
	if t < 0 {
		return -1
	}
	return g - q.colBase[t]
}

// GlobalID returns the global id of column ord of table i.
func (q *Query) GlobalID(i, ord int) int { return q.colBase[i] + ord }

// ColumnName returns the display name "alias.column" for a global id.
func (q *Query) ColumnName(g int) string {
	t := q.TableOf(g)
	if t < 0 {
		return fmt.Sprintf("$%d", g)
	}
	return q.Tables[t].Alias + "." + q.Schemas[t].Col(g-q.colBase[t]).Name
}

// ColumnType returns the type of a global column id.
func (q *Query) ColumnType(g int) types.Kind {
	t := q.TableOf(g)
	if t < 0 {
		return types.KindNull
	}
	return q.Schemas[t].Col(g - q.colBase[t]).Type
}

// TablesUsed returns the bitmask of table indexes referenced by the
// expression (bit i = table i).
func (q *Query) TablesUsed(e expr.Expr) uint64 {
	var mask uint64
	expr.Walk(e, func(n expr.Expr) {
		if c, ok := n.(*expr.ColRef); ok {
			if t := q.TableOf(c.Pos); t >= 0 {
				mask |= 1 << uint(t)
			}
		}
	})
	return mask
}

// LocalPredicates returns the WHERE conjuncts that reference only table i.
// A conjunct that references no table at all (`1 = 0`, `? = 1`) is table
// 0's: applied at one input, it filters the whole join, so it is never
// dropped.
func (q *Query) LocalPredicates(i int) []expr.Expr {
	var out []expr.Expr
	for _, p := range q.Where {
		if m := q.TablesUsed(p); m == 1<<uint(i) || m == 0 && i == 0 {
			out = append(out, p)
		}
	}
	return out
}

// JoinPredicates returns the WHERE conjuncts that reference more than one
// table.
func (q *Query) JoinPredicates() []expr.Expr {
	var out []expr.Expr
	for _, p := range q.Where {
		m := q.TablesUsed(p)
		if m != 0 && m&(m-1) != 0 { // more than one bit set
			out = append(out, p)
		}
	}
	return out
}

// String renders the query in SQL-ish form for diagnostics.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, s := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
	}
	b.WriteString(" FROM ")
	for i, t := range q.Tables {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.Table)
		if t.Alias != t.Table {
			b.WriteString(" " + t.Alias)
		}
	}
	if len(q.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range q.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range q.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.E.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

// BindParams returns a copy of q with every parameter marker replaced by its
// bound constant. The copy shares the (immutable) table references, schemas
// and global-id layout with q; only expression trees containing markers are
// rewritten. Queries without markers — or empty bindings — come back as q
// itself. Binding is an estimation-side tool: the optimizer and the plan
// cache estimate selectivities and compute feedback signatures on the bound
// copy while the executable plan keeps the markers.
func BindParams(q *Query, params []types.Datum) *Query {
	if q.NumParams == 0 || len(params) == 0 {
		return q
	}
	c := *q
	c.Where = make([]expr.Expr, len(q.Where))
	for i, p := range q.Where {
		c.Where[i] = expr.BindParams(p, params)
	}
	c.Select = make([]SelectItem, len(q.Select))
	for i, s := range q.Select {
		c.Select[i] = SelectItem{Agg: s.Agg, E: expr.BindParams(s.E, params), Name: s.Name}
	}
	c.GroupBy = make([]expr.Expr, len(q.GroupBy))
	for i, g := range q.GroupBy {
		c.GroupBy[i] = expr.BindParams(g, params)
	}
	c.OrderBy = make([]OrderItem, len(q.OrderBy))
	for i, o := range q.OrderBy {
		c.OrderBy[i] = OrderItem{E: expr.BindParams(o.E, params), Desc: o.Desc}
	}
	return &c
}

// Builder constructs resolved queries against a catalog.
type Builder struct {
	cat   *catalog.Catalog
	q     *Query
	alias map[string]int // alias -> table index
	err   error
}

// NewBuilder returns a builder bound to a catalog.
func NewBuilder(cat *catalog.Catalog) *Builder {
	return &Builder{cat: cat, q: &Query{}, alias: make(map[string]int)}
}

// AddTable appends a table reference; alias defaults to the table name.
// It returns the table index.
func (b *Builder) AddTable(table, alias string) int {
	if alias == "" {
		alias = table
	}
	t, err := b.cat.Table(table)
	if err != nil {
		b.fail(err)
		return -1
	}
	key := strings.ToLower(alias)
	if _, dup := b.alias[key]; dup {
		b.fail(fmt.Errorf("logical: duplicate alias %q", alias))
		return -1
	}
	b.q.Tables = append(b.q.Tables, TableRef{Table: t.Name, Alias: alias})
	b.q.Schemas = append(b.q.Schemas, t.Schema)
	idx := len(b.q.Tables) - 1
	b.alias[key] = idx
	return idx
}

// Col returns a column reference "alias.column" with its global id. The
// Builder must be finalized by Build before the id layout is meaningful, so
// Col computes the layout on demand.
func (b *Builder) Col(alias, column string) *expr.ColRef {
	key := strings.ToLower(alias)
	ti, ok := b.alias[key]
	if !ok {
		b.fail(fmt.Errorf("logical: unknown alias %q", alias))
		return &expr.ColRef{Pos: -1, Name: alias + "." + column}
	}
	ord := b.q.Schemas[ti].Ordinal(column)
	if ord < 0 {
		b.fail(fmt.Errorf("logical: unknown column %s.%s", alias, column))
		return &expr.ColRef{Pos: -1, Name: alias + "." + column}
	}
	base := 0
	for i := 0; i < ti; i++ {
		base += b.q.Schemas[i].Len()
	}
	return &expr.ColRef{Pos: base + ord, Name: alias + "." + column}
}

// Param allocates/returns a parameter marker with the given id.
func (b *Builder) Param(id int) *expr.Param {
	if id+1 > b.q.NumParams {
		b.q.NumParams = id + 1
	}
	return &expr.Param{ID: id}
}

// Distinct marks the query as SELECT DISTINCT.
func (b *Builder) Distinct() *Builder {
	b.q.Distinct = true
	return b
}

// Where adds a conjunct to the WHERE clause.
func (b *Builder) Where(p expr.Expr) *Builder {
	b.q.Where = append(b.q.Where, expr.Conjuncts(p)...)
	return b
}

// SelectCol adds a plain column projection.
func (b *Builder) SelectCol(alias, column string) *Builder {
	c := b.Col(alias, column)
	b.q.Select = append(b.q.Select, SelectItem{E: c, Name: c.Name})
	return b
}

// SelectExpr adds a scalar expression projection.
func (b *Builder) SelectExpr(e expr.Expr, name string) *Builder {
	b.q.Select = append(b.q.Select, SelectItem{E: e, Name: name})
	return b
}

// SelectAgg adds an aggregate projection; e may be nil for COUNT(*).
func (b *Builder) SelectAgg(agg AggKind, e expr.Expr, name string) *Builder {
	b.q.Select = append(b.q.Select, SelectItem{Agg: agg, E: e, Name: name})
	return b
}

// GroupBy adds grouping keys.
func (b *Builder) GroupBy(cols ...expr.Expr) *Builder {
	b.q.GroupBy = append(b.q.GroupBy, cols...)
	return b
}

// OrderBy adds an ordering key.
func (b *Builder) OrderBy(e expr.Expr, desc bool) *Builder {
	b.q.OrderBy = append(b.q.OrderBy, OrderItem{E: e, Desc: desc})
	return b
}

// Limit caps the result size.
func (b *Builder) Limit(n int) *Builder {
	b.q.Limit = n
	return b
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// maxTables is the widest query: table sets are uint64 masks.
const maxTables = 64

// Build finalizes and returns the query, or the first error encountered.
func (b *Builder) Build() (*Query, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.q.Tables) == 0 {
		return nil, fmt.Errorf("logical: query has no tables")
	}
	if len(b.q.Tables) > maxTables {
		return nil, fmt.Errorf("logical: query has %d tables; the limit is %d", len(b.q.Tables), maxTables)
	}
	if len(b.q.Select) == 0 {
		return nil, fmt.Errorf("logical: query has no select list")
	}
	b.q.finalize()
	return b.q, nil
}
