package optimizer

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/logical"
)

// Explain renders the plan tree with estimates, validity ranges and
// checkpoint annotations, in the style of a DBMS EXPLAIN.
func Explain(p *Plan, q *logical.Query) string {
	var b strings.Builder
	explainNode(&b, p, q, 0)
	return b.String()
}

// NodeLabel renders one plan node's operator label with its annotations —
// "IXSCAN(o)[sarg]", "CHECK[LC #1 range=[800.0,inf]]" —
// without the cardinality/cost suffix. EXPLAIN and EXPLAIN ANALYZE share it,
// so a node is named identically in both renderings.
func NodeLabel(p *Plan, q *logical.Query) string {
	var b strings.Builder
	b.WriteString(p.Op.String())
	switch p.Op {
	case OpTableScan, OpIndexScan:
		if q != nil && p.Table < len(q.Tables) {
			fmt.Fprintf(&b, "(%s)", q.Tables[p.Table].Alias)
		}
		if p.Op == OpIndexScan {
			if p.IndexLo == nil && p.IndexHi == nil {
				// Either a parameterized probe under an index NLJN (the
				// parent prints [index]) or an order-providing full scan.
				b.WriteString("[full]")
			} else {
				b.WriteString("[sarg]")
			}
		}
	case OpMVScan:
		if p.MV != nil {
			fmt.Fprintf(&b, "(%s)", p.MV.Signature)
		}
	case OpNLJN:
		if p.IndexJoin {
			b.WriteString("[index]")
		}
	case OpCheck:
		if p.Check != nil {
			fmt.Fprintf(&b, "[%s #%d range=%s]", p.Check.Flavor, p.Check.ID, formatRange(p.Check.Range))
		}
	default:
		// Joins, sorts, aggregates and projections label themselves with
		// the bare OpKind written above.
	}
	return b.String()
}

func explainNode(b *strings.Builder, p *Plan, q *logical.Query, depth int) {
	indent := strings.Repeat("  ", depth)
	b.WriteString(indent)
	b.WriteString(NodeLabel(p, q))
	fmt.Fprintf(b, "  card=%.1f cost=%.0f", p.Card, p.Cost)
	if p.Filter != nil {
		fmt.Fprintf(b, " filter=%s", p.Filter)
	}
	if len(p.SortKeys) > 0 {
		parts := make([]string, len(p.SortKeys))
		for i, k := range p.SortKeys {
			dir := ""
			if k.Desc {
				dir = " desc"
			}
			name := fmt.Sprintf("$%d", k.Col)
			if q != nil && k.Col < q.NumColumns() {
				name = q.ColumnName(k.Col)
			}
			parts[i] = name + dir
		}
		fmt.Fprintf(b, " keys=[%s]", strings.Join(parts, ","))
	}
	if p.Limit > 0 {
		fmt.Fprintf(b, " limit=%d", p.Limit)
	}
	for i := range p.Children {
		if v := p.EdgeValidity(i); v.Bounded() {
			fmt.Fprintf(b, " validity[%d]=%s", i, formatRange(v))
		}
	}
	b.WriteByte('\n')
	for _, c := range p.Children {
		explainNode(b, c, q, depth+1)
	}
}

func formatRange(r Range) string {
	hi := "inf"
	if !math.IsInf(r.Hi, 1) {
		hi = fmt.Sprintf("%.1f", r.Hi)
	}
	return fmt.Sprintf("[%.1f,%s]", r.Lo, hi)
}
