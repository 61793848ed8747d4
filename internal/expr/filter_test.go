package expr

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/schema"
	"repro/internal/types"
)

// interpret is the interpreted filter a compiled Filter must reproduce:
// evaluate the whole predicate, then accept its value.
func interpret(e Expr, ctx *Context, row schema.Row) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := e.Eval(ctx, row)
	if err != nil {
		return false, err
	}
	return Accept(v)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkFilter compiles e and requires Test to give the interpreter's keep
// decision and error text on every row, and TestPair to give the same on
// the row split at every position into a left and a right input. One
// scratch row serves every call, as it does in a join.
func checkFilter(t *testing.T, e Expr, ctx *Context, rows []schema.Row) {
	t.Helper()
	f := Compile(e, ctx)
	if got, want := f.Len(), len(Conjuncts(e)); got != want {
		t.Fatalf("%v: %d conjuncts compiled, want %d", e, got, want)
	}
	var scratch schema.Row
	for _, row := range rows {
		keep, err := f.Test(row)
		wantKeep, wantErr := interpret(e, ctx, row)
		if keep != wantKeep || errText(err) != errText(wantErr) {
			t.Fatalf("%v on %v (params %v):\ncompiled    keep=%v err=%q\ninterpreted keep=%v err=%q",
				e, row, ctx, keep, errText(err), wantKeep, errText(wantErr))
		}
		for k := 0; k <= len(row); k++ {
			keep, err := f.TestPair(row[:k:k], row[k:], &scratch)
			if keep != wantKeep || errText(err) != errText(wantErr) {
				t.Fatalf("%v on %v | %v (params %v):\npair        keep=%v err=%q\ninterpreted keep=%v err=%q",
					e, row[:k], row[k:], ctx, keep, errText(err), wantKeep, errText(wantErr))
			}
		}
	}
}

// filterGen builds a random conjunction, parameter bindings and a batch of
// rows. Every structural choice is read from a byte stream, so the fuzzer
// steers the predicate's shape; row values come from a source seeded by
// that stream.
type filterGen struct {
	b      []byte
	params int // bound parameters; ?params is the first unbound one
	rng    *rand.Rand
}

// pick returns the next choice in [0, n); an exhausted stream picks 0.
func (g *filterGen) pick(n int) int {
	if len(g.b) == 0 {
		return 0
	}
	v := int(g.b[0]) % n
	g.b = g.b[1:]
	return v
}

// datum returns a value of kind (the types.Kind order) from a small domain,
// so equal values and int/date/float ties are common.
func (g *filterGen) datum(kind int) types.Datum {
	switch types.Kind(kind) {
	case types.KindBool:
		return types.NewBool(g.rng.Intn(2) == 1)
	case types.KindInt:
		return types.NewInt(int64(g.rng.Intn(5) - 1))
	case types.KindFloat:
		return types.NewFloat([]float64{-0.5, 0, 1, 1.5, 3, math.NaN()}[g.rng.Intn(6)])
	case types.KindString:
		return types.NewString([]string{"", "a", "ab", "b"}[g.rng.Intn(4)])
	case types.KindDate:
		return types.NewDate(int64(g.rng.Intn(4)))
	}
	return types.Null
}

const numKinds = 6

// operand is a column (possibly out of range on either side), a constant, a
// parameter (possibly unbound) or arithmetic on a column.
func (g *filterGen) operand(width int) Expr {
	col := &ColRef{Pos: g.pick(width+2) - 1}
	switch g.pick(5) {
	case 0, 1:
		return col
	case 2:
		return &Const{Val: g.datum(g.pick(numKinds))}
	case 3:
		return &Param{ID: g.pick(g.params + 1)}
	}
	return &Arith{Op: ArithOp(g.pick(4)), L: col, R: &Const{Val: g.datum(g.pick(numKinds))}}
}

// pred is a comparison, or (above depth 0) an AND, OR or NOT over further
// predicates, or one of the shapes that never compile: IN, LIKE, IS NULL and
// a bare operand.
func (g *filterGen) pred(width, depth int) Expr {
	k := g.pick(9)
	if depth <= 0 && k >= 4 && k <= 5 {
		k = 0
	}
	switch k {
	case 0, 1, 2, 3:
		return &Cmp{Op: CmpOp(g.pick(6)), L: g.operand(width), R: g.operand(width)}
	case 4:
		args := make([]Expr, 1+g.pick(3))
		for i := range args {
			args[i] = g.pred(width, depth-1)
		}
		return &Logic{Op: LogicOp(g.pick(2)), Args: args}
	case 5:
		return &Not{E: g.pred(width, depth-1)}
	case 6:
		return &InList{Input: g.operand(width), List: []Expr{g.operand(width), g.operand(width)}}
	case 7:
		return NewLike(g.operand(width), []string{"a%", "%b", "_", "ab"}[g.pick(4)], g.pick(2) == 1)
	}
	if g.pick(2) == 0 {
		return &IsNull{E: g.operand(width), Negate: g.pick(2) == 1}
	}
	return g.operand(width)
}

// build returns a predicate (nil, one term, or an AND with nested ANDs), its
// context and a batch of 0, 1-8 or 64 rows.
func (g *filterGen) build() (Expr, *Context, []schema.Row) {
	g.rng = rand.New(rand.NewSource(int64(g.pick(256))))
	width := 1 + g.pick(6)
	g.params = g.pick(3)
	var ctx *Context
	if g.pick(8) != 0 {
		ctx = &Context{Params: make([]types.Datum, g.params)}
		for i := range ctx.Params {
			ctx.Params[i] = g.datum(g.pick(numKinds))
		}
	}
	var e Expr
	if g.pick(16) != 0 {
		args := make([]Expr, 1+g.pick(4))
		for i := range args {
			if g.pick(5) == 0 {
				args[i] = &Logic{Op: And, Args: []Expr{g.pred(width, 2), g.pred(width, 2)}}
			} else {
				args[i] = g.pred(width, 2)
			}
		}
		e = Conjoin(args...)
	}
	kinds := make([]int, width)
	for i := range kinds {
		kinds[i] = g.pick(numKinds)
	}
	rows := make([]schema.Row, []int{0, 1 + g.pick(8), 64}[g.pick(3)])
	for i := range rows {
		row := make(schema.Row, width)
		for c := range row {
			switch g.rng.Intn(8) {
			case 0:
				// NULL
			case 1:
				row[c] = g.datum(g.rng.Intn(numKinds))
			default:
				row[c] = g.datum(kinds[c])
			}
		}
		rows[i] = row
	}
	return e, ctx, rows
}

// TestCompiledFilterMatchesEval drives random conjunctions — NULLs, every
// kind, cross-kind pairs, bound and unbound parameters, flipped operands,
// column pairs, out-of-range positions and nested fallbacks — through both
// the compiled filter and the interpreter.
func TestCompiledFilterMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		data := make([]byte, 8+r.Intn(120))
		r.Read(data)
		g := &filterGen{b: data}
		e, ctx, rows := g.build()
		checkFilter(t, e, ctx, rows)
	}
}

func FuzzFilter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 3, 1, 8, 2, 0, 0, 2, 1, 1, 3, 0, 2, 4, 2})
	f.Add([]byte("compiled filter conjuncts against the interpreter"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &filterGen{b: data}
		e, ctx, rows := g.build()
		checkFilter(t, e, ctx, rows)
	})
}

// TestCompileResolves pins which conjuncts take the compiled comparison, so
// the differential tests above exercise it rather than only the fallback.
func TestCompileResolves(t *testing.T) {
	ctx := &Context{Params: []types.Datum{types.NewInt(3)}}
	col := &ColRef{Pos: 1}
	lit := &Const{Val: types.NewString("a")}
	cases := []struct {
		e    Expr
		want bool
	}{
		{&Cmp{Op: LT, L: col, R: lit}, true},
		{&Cmp{Op: LT, L: lit, R: col}, true},
		{&Cmp{Op: EQ, L: col, R: &Param{ID: 0}}, true},
		{&Cmp{Op: EQ, L: &Param{ID: 0}, R: col}, true},
		{&Cmp{Op: NE, L: col, R: &ColRef{Pos: 0}}, true},
		{&Cmp{Op: EQ, L: col, R: &Param{ID: 1}}, false}, // unbound
		{&Cmp{Op: EQ, L: &ColRef{Pos: -1}, R: col}, false},
		{&Cmp{Op: EQ, L: col, R: &Arith{Op: Add, L: col, R: lit}}, false},
		{&IsNull{E: col}, false},
	}
	for _, c := range cases {
		f := Compile(&Logic{Op: And, Args: []Expr{c.e, &Not{E: c.e}}}, ctx)
		if f.Len() != 2 || f.conj[0].resolved != c.want || f.conj[1].resolved {
			t.Errorf("%v: resolved %v, want %v", c.e, f.conj[0].resolved, c.want)
		}
	}
	if f := Compile(nil, ctx); f.Len() != 0 {
		t.Errorf("nil filter has %d conjuncts", f.Len())
	} else if keep, err := f.Test(schema.Row{}); !keep || err != nil {
		t.Errorf("nil filter: keep=%v err=%v", keep, err)
	}
}
