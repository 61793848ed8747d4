// Package optimizer implements a Selinger-style cost-based optimizer with
// dynamic-programming join enumeration, plus the paper's contribution at the
// optimizer level: validity-range computation for plan edges via a plan
// sensitivity analysis embedded in the pruning phase (paper §2.2, Fig. 5).
package optimizer

import (
	"math"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/schema"
)

// OpKind enumerates physical plan operators.
type OpKind uint8

// Physical operators. OpCheck nodes are inserted by the POP post-pass; they
// have no relational semantics (paper §2).
const (
	OpTableScan OpKind = iota
	OpIndexScan
	OpMVScan
	OpNLJN
	OpHSJN
	OpMGJN
	OpSort
	OpTemp
	OpHashAgg
	OpProject
	OpCheck
)

// String returns the operator's display name.
func (k OpKind) String() string {
	switch k {
	case OpTableScan:
		return "TBSCAN"
	case OpIndexScan:
		return "IXSCAN"
	case OpMVScan:
		return "MVSCAN"
	case OpNLJN:
		return "NLJN"
	case OpHSJN:
		return "HSJN"
	case OpMGJN:
		return "MGJN"
	case OpSort:
		return "SORT"
	case OpTemp:
		return "TEMP"
	case OpHashAgg:
		return "GRPBY"
	case OpProject:
		return "RETURN"
	case OpCheck:
		return "CHECK"
	default:
		return "?OP?"
	}
}

// IsJoin reports whether the operator is a join.
func (k OpKind) IsJoin() bool { return k == OpNLJN || k == OpHSJN || k == OpMGJN }

// IsMaterialization reports whether the operator fully materializes its
// input before producing output — the "materialization points" that lazy
// checkpoints piggyback on (paper §3.1). The build side of HSJN is also a
// materialization, handled specially during checkpoint placement.
func (k OpKind) IsMaterialization() bool { return k == OpSort || k == OpTemp }

// Range is a cardinality interval [Lo, Hi]. Validity ranges attach one to
// each plan edge; CHECK operators test the actual row count against it.
type Range struct {
	Lo, Hi float64
}

// UnboundedRange covers all cardinalities: the conservative default.
func UnboundedRange() Range { return Range{Lo: 0, Hi: math.Inf(1)} }

// Contains reports whether the cardinality is inside the range.
func (r Range) Contains(card float64) bool { return card >= r.Lo && card <= r.Hi }

// Bounded reports whether either end of the range is finite and binding.
func (r Range) Bounded() bool { return r.Lo > 0 || !math.IsInf(r.Hi, 1) }

// CheckFlavor enumerates the five checkpoint flavors of paper §3.
type CheckFlavor uint8

// Checkpoint flavors.
const (
	// LC: lazy check above an existing materialization point.
	LC CheckFlavor = iota
	// LCEM: lazy check with an eagerly added materialization (TEMP) on the
	// outer of an NLJN.
	LCEM
	// ECB: eager check with buffering (BUFCHECK) — tests while filling a
	// bounded buffer, re-optimizing before materialization completes.
	ECB
	// ECWC: eager check without compensation, below a materialization point.
	ECWC
	// ECDC: eager check with deferred compensation via a rid side-table and
	// an anti-join in the re-optimized plan.
	ECDC
)

// String returns the flavor's abbreviation.
func (f CheckFlavor) String() string {
	switch f {
	case LC:
		return "LC"
	case LCEM:
		return "LCEM"
	case ECB:
		return "ECB"
	case ECWC:
		return "ECWC"
	case ECDC:
		return "ECDC"
	default:
		return "?CHECK?"
	}
}

// CheckMeta parameterizes an OpCheck node.
type CheckMeta struct {
	ID        int // checkpoint id within the plan
	Flavor    CheckFlavor
	Range     Range   // check range [l, u] (paper §2)
	EstCard   float64 // the estimate the range was derived from
	Signature string  // plan-edge signature for feedback and MV matching
	// BufferSize is the valve size b for ECB checkpoints.
	BufferSize int
	// Where describes the placement site ("above SORT", "above HJ build",
	// "NLJN outer", ...), matching the legend of the paper's Figure 14.
	Where string
}

// SortKey is one key of a sort order, as a query-global column id.
type SortKey struct {
	Col  int
	Desc bool
}

// MatView is a temporary materialized view created from an intermediate
// result at a CHECK. It lives only as long as its statement, in the map the
// POP runner hands each of the statement's compiles (Optimizer.Views). Its
// signature identifies the logical content — the set of base tables joined
// and the canonical text of all predicates applied — which is how the
// optimizer matches it against subplans during re-optimization. Cardinality
// is exact, taken from the runtime counter.
type MatView struct {
	Signature string
	Cols      []int // query-global column ids of the logical intermediate result
	// RowCols is the layout Rows were materialized in (nil: Cols). The
	// executor keeps only the columns still read above a join, so a view of
	// a join's output holds fewer columns than Cols lists; the optimizer
	// plans with Cols and an MVSCAN emits RowCols.
	RowCols []int
	Rows    []schema.Row
	Card    float64
	// Sorted reports that the rows are sorted ascending on OrderedCol (a
	// query-global column id). A view promoted from a SORT keeps its order,
	// so re-optimized merge joins can reuse it without re-sorting.
	Sorted     bool
	OrderedCol int
}

// Plan is a physical query execution plan node. Cols lists the query-global
// column ids present in this node's output rows, in row order. Card and Cost
// are the optimizer's estimates; Validity holds the per-input-edge validity
// ranges, set on the plan Optimize returns.
//
// Cols, Filter, JoinPred, EquiLeft and EquiRight are immutable once the node
// is constructed: the enumerator points every candidate of a join split at
// the same predicate conjunctions and key slices, and enforcers and CHECK/TEMP
// wrappers share their child's Cols. Rewrites (checkpoint placement,
// expr.Remap in the executor) replace these fields on a clone or
// copy the expression; nothing may write through them in place.
type Plan struct {
	Op       OpKind
	Children []*Plan

	// Scans.
	Table                  int       // table index in the query (OpTableScan/OpIndexScan)
	IndexOrd               int       // indexed column ordinal for OpIndexScan
	IndexLo, IndexHi       expr.Expr // sargable bounds (nil = unbounded); equality sets both
	IndexLoInc, IndexHiInc bool
	MV                     *MatView // OpMVScan

	// Predicates, in query-global column ids.
	Filter expr.Expr // residual filter applied at this node

	// Join parameters. For OpNLJN with IndexJoin, the inner child must be an
	// OpIndexScan whose probe key comes from the outer row (LookupCol).
	JoinPred  expr.Expr
	EquiLeft  []int // global ids on the left/outer side
	EquiRight []int // global ids on the right/inner side
	IndexJoin bool
	LookupCol int // global id in the outer row used as the index probe key

	// Aggregation.
	GroupBy []int // global ids of grouping keys
	Items   []logical.SelectItem

	// Sorting.
	SortKeys []SortKey

	// Limit caps the number of rows the node emits (0 = unlimited); set on
	// the topmost node only.
	Limit int

	// POP checkpoint.
	Check *CheckMeta

	// Output description.
	Cols []int

	// Estimates.
	Card float64
	Cost float64

	// Validity ranges per child edge (parallel to Children). Nil means
	// "unbounded" for every edge.
	Validity []Range

	// Internal bookkeeping used during enumeration.
	tables  uint64 // bitmask of base tables covered
	ordered int    // global col id the output is ordered on (-1 = none)
	// sortCost is the cost of a SORT over this plan, set when the plan
	// enters a group (addPath, settle): every merge-join candidate with
	// this plan as its unordered outer reads it instead of recomputing it.
	sortCost float64
}

// Tables returns the bitmask of base tables this subtree covers.
func (p *Plan) Tables() uint64 { return p.tables }

// OrderedOn returns the global column id the output is sorted on, or -1.
func (p *Plan) OrderedOn() int { return p.ordered }

// EdgeValidity returns the validity range for child edge i, defaulting to
// unbounded.
func (p *Plan) EdgeValidity(i int) Range {
	if i < len(p.Validity) {
		return p.Validity[i]
	}
	return UnboundedRange()
}

// SetEdgeValidity records a validity range for child edge i.
func (p *Plan) SetEdgeValidity(i int, r Range) {
	for len(p.Validity) < len(p.Children) {
		p.Validity = append(p.Validity, UnboundedRange())
	}
	p.Validity[i] = r
}

// Walk visits the plan tree in pre-order.
func (p *Plan) Walk(fn func(*Plan)) {
	if p == nil {
		return
	}
	fn(p)
	for _, c := range p.Children {
		c.Walk(fn)
	}
}

// Count returns the number of nodes of the given kind in the subtree.
func (p *Plan) Count(kind OpKind) int {
	n := 0
	p.Walk(func(q *Plan) {
		if q.Op == kind {
			n++
		}
	})
	return n
}

// clone returns a shallow copy of the node (children shared). The POP
// post-pass uses it when rewriting trees.
func (p *Plan) clone() *Plan {
	c := *p
	c.Children = append([]*Plan(nil), p.Children...)
	c.Validity = append([]Range(nil), p.Validity...)
	return &c
}

// WrapCheck builds an OpCheck node over child, propagating the output
// description, estimates and table coverage. The POP post-pass uses it.
func WrapCheck(child *Plan, meta *CheckMeta) *Plan {
	return &Plan{
		Op:       OpCheck,
		Children: []*Plan{child},
		Check:    meta,
		Cols:     child.Cols,
		Card:     child.Card,
		Cost:     child.Cost,
		tables:   child.tables,
		ordered:  child.ordered,
	}
}

// WrapTemp builds an OpTemp materialization over child, propagating the
// output description, estimates and table coverage. The POP post-pass uses
// it for LCEM's eager materializations.
func WrapTemp(child *Plan) *Plan {
	return &Plan{
		Op:       OpTemp,
		Children: []*Plan{child},
		Cols:     child.Cols,
		Card:     child.Card,
		Cost:     child.Cost,
		tables:   child.tables,
		ordered:  child.ordered,
	}
}

// CloneNode returns a shallow copy with fresh child and validity slices,
// preserving unexported bookkeeping.
func CloneNode(p *Plan) *Plan { return p.clone() }
