package schema

import (
	"testing"

	"repro/internal/types"
)

func testSchema() *Schema {
	return New(
		Column{Name: "id", Type: types.KindInt},
		Column{Name: "name", Type: types.KindString},
		Column{Name: "score", Type: types.KindFloat, Nullable: true},
	)
}

func TestOrdinal(t *testing.T) {
	s := testSchema()
	if s.Ordinal("id") != 0 || s.Ordinal("name") != 1 || s.Ordinal("score") != 2 {
		t.Error("ordinal lookup failed")
	}
	if s.Ordinal("NAME") != 1 {
		t.Error("ordinal lookup should be case-insensitive")
	}
	if s.Ordinal("missing") != -1 {
		t.Error("missing column should return -1")
	}
}

func TestLenAndCol(t *testing.T) {
	s := testSchema()
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Col(1).Name != "name" {
		t.Error("Col(1) wrong")
	}
}

func TestConcat(t *testing.T) {
	a := New(Column{Name: "a", Type: types.KindInt})
	b := New(Column{Name: "b", Type: types.KindString})
	c := a.Concat(b)
	if c.Len() != 2 || c.Col(0).Name != "a" || c.Col(1).Name != "b" {
		t.Error("schema concat wrong")
	}
	// Originals untouched.
	if a.Len() != 1 || b.Len() != 1 {
		t.Error("concat mutated inputs")
	}
}

func TestSchemaString(t *testing.T) {
	s := New(Column{Name: "a", Type: types.KindInt}, Column{Name: "b", Type: types.KindString})
	want := "(a INTEGER, b VARCHAR)"
	if got := s.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestRowCloneIndependence(t *testing.T) {
	r := Row{types.NewInt(1), types.NewString("x")}
	c := r.Clone()
	c[0] = types.NewInt(99)
	if r[0].Int() != 1 {
		t.Error("clone aliases original")
	}
}

func TestRowConcat(t *testing.T) {
	a := Row{types.NewInt(1)}
	b := Row{types.NewString("x"), types.Null}
	c := a.Concat(b)
	if len(c) != 3 || c[0].Int() != 1 || c[1].Str() != "x" || !c[2].IsNull() {
		t.Errorf("concat = %v", c)
	}
}

func TestRowString(t *testing.T) {
	r := Row{types.NewInt(1), types.NewString("x"), types.Null}
	if got := r.String(); got != "[1, 'x', NULL]" {
		t.Errorf("Row.String = %q", got)
	}
}
