// Package expr implements scalar expressions and predicates: comparisons,
// boolean logic with SQL three-valued semantics, LIKE, IN-lists, arithmetic,
// and parameter markers (the estimation-error source used by the paper's
// Figure 11 experiment).
//
// Column references carry an integer position. At the logical-plan level that
// position is a query-global column id; before execution the optimizer
// rewrites each operator's expressions with Remap so the position becomes the
// ordinal in the operator's input row.
package expr

import (
	"fmt"
	"strings"

	"repro/internal/schema"
	"repro/internal/types"
)

// Context carries per-execution state needed by expression evaluation:
// the bindings for parameter markers.
type Context struct {
	// Params holds the value bound to each parameter marker, indexed by the
	// marker's ID.
	Params []types.Datum
}

// Param returns the binding for marker id, or an error if unbound.
func (c *Context) Param(id int) (types.Datum, error) {
	if c == nil || id < 0 || id >= len(c.Params) {
		return types.Null, fmt.Errorf("expr: unbound parameter marker ?%d", id)
	}
	return c.Params[id], nil
}

// Expr is a scalar expression evaluated against a row.
type Expr interface {
	// Eval computes the expression's value for the given row.
	Eval(ctx *Context, row schema.Row) (types.Datum, error)
	// String renders the expression in SQL-ish syntax.
	String() string
}

// ColRef references a column by position (see the package comment for the
// two position conventions). Name is for display only.
type ColRef struct {
	Pos  int
	Name string
}

// Eval returns the datum at the referenced position.
func (c *ColRef) Eval(_ *Context, row schema.Row) (types.Datum, error) {
	if c.Pos < 0 || c.Pos >= len(row) {
		return types.Null, fmt.Errorf("expr: column position %d out of range for row of %d", c.Pos, len(row))
	}
	return row[c.Pos], nil
}

func (c *ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Pos)
}

// Const is a literal value.
type Const struct{ Val types.Datum }

// Eval returns the literal.
func (c *Const) Eval(*Context, schema.Row) (types.Datum, error) { return c.Val, nil }

func (c *Const) String() string { return c.Val.String() }

// Param is a parameter marker ("?"). Its value is unknown at optimization
// time — the optimizer assigns a default selectivity to predicates over it —
// and bound in Context at execution time.
type Param struct{ ID int }

// Eval returns the bound parameter value.
func (p *Param) Eval(ctx *Context, _ schema.Row) (types.Datum, error) { return ctx.Param(p.ID) }

func (p *Param) String() string { return fmt.Sprintf("?%d", p.ID) }

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the SQL spelling of the operator.
func (o CmpOp) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return "?op?"
	}
}

// Negate returns the complementary operator (EQ↔NE, LT↔GE, ...).
func (o CmpOp) Negate() CmpOp {
	switch o {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	}
	return o
}

// Flip returns the operator with operands swapped (LT↔GT, LE↔GE).
func (o CmpOp) Flip() CmpOp {
	switch o {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default:
		return o // EQ and NE are symmetric
	}
}

// Cmp compares two sub-expressions. NULL operands yield NULL (unknown).
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval implements SQL comparison with three-valued logic.
func (c *Cmp) Eval(ctx *Context, row schema.Row) (types.Datum, error) {
	l, err := c.L.Eval(ctx, row)
	if err != nil {
		return types.Null, err
	}
	r, err := c.R.Eval(ctx, row)
	if err != nil {
		return types.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return types.Null, nil
	}
	rel, err := l.Compare(r)
	if err != nil {
		return types.Null, err
	}
	return types.NewBool(c.Op.holds(rel)), nil
}

// holds reports whether the operator accepts a Compare result.
func (o CmpOp) holds(rel int) bool {
	switch o {
	case EQ:
		return rel == 0
	case NE:
		return rel != 0
	case LT:
		return rel < 0
	case LE:
		return rel <= 0
	case GT:
		return rel > 0
	case GE:
		return rel >= 0
	}
	return false
}

func (c *Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.L.String(), c.Op, c.R.String())
}

// LogicOp is AND or OR.
type LogicOp uint8

// Boolean connectives.
const (
	And LogicOp = iota
	Or
)

func (o LogicOp) String() string {
	if o == And {
		return "AND"
	}
	return "OR"
}

// Logic combines boolean sub-expressions with three-valued AND/OR.
type Logic struct {
	Op   LogicOp
	Args []Expr
}

// Eval implements Kleene logic: AND is false if any arg is false, NULL if
// any is NULL and none false; OR dually.
func (l *Logic) Eval(ctx *Context, row schema.Row) (types.Datum, error) {
	sawNull := false
	for _, a := range l.Args {
		v, err := a.Eval(ctx, row)
		if err != nil {
			return types.Null, err
		}
		b, known, err := truth(v)
		if err != nil {
			return types.Null, err
		}
		if !known {
			sawNull = true
			continue
		}
		if l.Op == And && !b {
			return types.NewBool(false), nil
		}
		if l.Op == Or && b {
			return types.NewBool(true), nil
		}
	}
	if sawNull {
		return types.Null, nil
	}
	return types.NewBool(l.Op == And), nil
}

func (l *Logic) String() string {
	parts := make([]string, len(l.Args))
	for i, a := range l.Args {
		parts[i] = "(" + a.String() + ")"
	}
	return strings.Join(parts, " "+l.Op.String()+" ")
}

// Not negates a boolean expression; NOT NULL is NULL.
type Not struct{ E Expr }

// Eval implements three-valued negation.
func (n *Not) Eval(ctx *Context, row schema.Row) (types.Datum, error) {
	v, err := n.E.Eval(ctx, row)
	if err != nil {
		return types.Null, err
	}
	b, known, err := truth(v)
	if err != nil || !known {
		return types.Null, err
	}
	return types.NewBool(!b), nil
}

// truth reads v as a condition under three-valued logic: known is false for
// NULL, and a value that is neither NULL nor boolean is an error.
func truth(v types.Datum) (b, known bool, err error) {
	switch v.Kind() {
	case types.KindBool:
		return v.Bool(), true, nil
	case types.KindNull:
		return false, false, nil
	default:
		return false, false, fmt.Errorf("expr: condition is %s, not BOOLEAN", v.Kind())
	}
}

func (n *Not) String() string { return "NOT (" + n.E.String() + ")" }

// IsNull tests for NULL; with Negate it is IS NOT NULL. It always yields a
// non-NULL boolean.
type IsNull struct {
	E      Expr
	Negate bool
}

// Eval returns TRUE/FALSE (never NULL).
func (i *IsNull) Eval(ctx *Context, row schema.Row) (types.Datum, error) {
	v, err := i.E.Eval(ctx, row)
	if err != nil {
		return types.Null, err
	}
	return types.NewBool(v.IsNull() != i.Negate), nil
}

func (i *IsNull) String() string {
	if i.Negate {
		return i.E.String() + " IS NOT NULL"
	}
	return i.E.String() + " IS NULL"
}

// InList tests membership in a list of expressions (usually constants).
// A non-matching probe with NULL list members yields NULL per SQL.
type InList struct {
	Input Expr
	List  []Expr
}

// Eval implements SQL IN semantics.
func (in *InList) Eval(ctx *Context, row schema.Row) (types.Datum, error) {
	probe, err := in.Input.Eval(ctx, row)
	if err != nil {
		return types.Null, err
	}
	if probe.IsNull() {
		return types.Null, nil
	}
	sawNull := false
	for _, e := range in.List {
		v, err := e.Eval(ctx, row)
		if err != nil {
			return types.Null, err
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		rel, err := probe.Compare(v)
		if err != nil {
			continue // incomparable list member never matches
		}
		if rel == 0 {
			return types.NewBool(true), nil
		}
	}
	if sawNull {
		return types.Null, nil
	}
	return types.NewBool(false), nil
}

func (in *InList) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	return fmt.Sprintf("%s IN (%s)", in.Input.String(), strings.Join(parts, ", "))
}

// ArithOp is an arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

func (o ArithOp) String() string {
	switch o {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	default:
		return "/"
	}
}

// Arith computes L op R with numeric coercion: int op int stays int (except
// division, which is float), otherwise float.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval performs the arithmetic; NULL operands propagate.
func (a *Arith) Eval(ctx *Context, row schema.Row) (types.Datum, error) {
	l, err := a.L.Eval(ctx, row)
	if err != nil {
		return types.Null, err
	}
	r, err := a.R.Eval(ctx, row)
	if err != nil {
		return types.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return types.Null, nil
	}
	if !l.Kind().Numeric() || !r.Kind().Numeric() {
		return types.Null, fmt.Errorf("expr: arithmetic on non-numeric %s %s %s", l.Kind(), a.Op, r.Kind())
	}
	if l.Kind() == types.KindInt && r.Kind() == types.KindInt && a.Op != Div {
		x, y := l.Int(), r.Int()
		switch a.Op {
		case Add:
			return types.NewInt(x + y), nil
		case Sub:
			return types.NewInt(x - y), nil
		case Mul:
			return types.NewInt(x * y), nil
		default:
			// Div is excluded by the guard above (integer division promotes
			// to float); fall through to the float path.
		}
	}
	x, y := l.Float(), r.Float()
	switch a.Op {
	case Add:
		return types.NewFloat(x + y), nil
	case Sub:
		return types.NewFloat(x - y), nil
	case Mul:
		return types.NewFloat(x * y), nil
	default:
		if y == 0 {
			return types.Null, fmt.Errorf("expr: division by zero")
		}
		return types.NewFloat(x / y), nil
	}
}

func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L.String(), a.Op, a.R.String())
}
