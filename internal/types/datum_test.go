package types

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindBool:   "BOOLEAN",
		KindInt:    "INTEGER",
		KindFloat:  "DOUBLE",
		KindString: "VARCHAR",
		KindDate:   "DATE",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var d Datum
	if !d.IsNull() {
		t.Fatal("zero Datum should be NULL")
	}
	if d.Kind() != KindNull {
		t.Fatalf("zero Datum kind = %v", d.Kind())
	}
	if !Null.IsNull() {
		t.Fatal("Null should be NULL")
	}
}

func TestAccessors(t *testing.T) {
	if NewInt(42).Int() != 42 {
		t.Error("Int accessor")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Error("Float accessor")
	}
	if NewString("abc").Str() != "abc" {
		t.Error("Str accessor")
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("Bool accessor")
	}
	if NewDate(100).Days() != 100 {
		t.Error("Days accessor")
	}
	if NewInt(7).Float() != 7.0 {
		t.Error("int->float coercion")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Int on string", func() { NewString("x").Int() })
	mustPanic("Str on int", func() { NewInt(1).Str() })
	mustPanic("Bool on int", func() { NewInt(1).Bool() })
	mustPanic("Days on int", func() { NewInt(1).Days() })
	mustPanic("Float on string", func() { NewString("x").Float() })
}

func TestCompareNumeric(t *testing.T) {
	cases := []struct {
		a, b Datum
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(2.0), NewInt(2), 0},
		{NewFloat(1.5), NewFloat(0.5), 1},
		{NewDate(10), NewDate(20), -1},
		{NewDate(10), NewInt(10), 0},
		{NewBool(false), NewBool(true), -1},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.b)
		if err != nil {
			t.Errorf("Compare(%v,%v): %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareStrings(t *testing.T) {
	a, b := NewString("apple"), NewString("banana")
	if c, _ := a.Compare(b); c != -1 {
		t.Error("apple < banana expected")
	}
	if c, _ := b.Compare(a); c != 1 {
		t.Error("banana > apple expected")
	}
	if c, _ := a.Compare(a); c != 0 {
		t.Error("apple == apple expected")
	}
}

func TestCompareErrors(t *testing.T) {
	if _, err := Null.Compare(NewInt(1)); err == nil {
		t.Error("NULL compare should fail")
	}
	if _, err := NewInt(1).Compare(Null); err == nil {
		t.Error("compare to NULL should fail")
	}
	if _, err := NewString("a").Compare(NewInt(1)); err == nil {
		t.Error("string vs int should fail")
	}
	if _, err := NewBool(true).Compare(NewString("a")); err == nil {
		t.Error("bool vs string should fail")
	}
	var e *ErrIncomparable
	_, err := NewString("a").Compare(NewInt(1))
	if e2, ok := err.(*ErrIncomparable); !ok {
		t.Errorf("want *ErrIncomparable, got %T", err)
	} else {
		e = e2
	}
	if e != nil && e.Error() == "" {
		t.Error("empty error text")
	}
}

func TestMustComparePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompare on NULL should panic")
		}
	}()
	Null.MustCompare(NewInt(1))
}

func TestEqual(t *testing.T) {
	if !NewInt(5).Equal(NewInt(5)) {
		t.Error("5 == 5")
	}
	if NewInt(5).Equal(NewInt(6)) {
		t.Error("5 != 6")
	}
	if NewInt(1).Equal(NewFloat(1)) {
		t.Error("cross-kind identity must be false")
	}
	if !Null.Equal(Null) {
		t.Error("NULL identity-equals NULL for grouping")
	}
	if !NewString("x").Equal(NewString("x")) {
		t.Error("string equality")
	}
	nan := NewFloat(math.NaN())
	if !nan.Equal(nan) {
		t.Error("NaN identity-equals NaN for grouping")
	}
}

// TestDatumIs16Bytes is a tripwire on the layout: every table row, batch
// slab, hash-join run and sort buffer holds Datums, so a field added back
// (or the zero-size field moved last) grows all of them by half or more.
func TestDatumIs16Bytes(t *testing.T) {
	if got := reflect.TypeOf(Datum{}).Size(); got != 16 {
		t.Fatalf("Datum is %d bytes, want 16", got)
	}
	if reflect.TypeOf(Datum{}).Comparable() {
		t.Fatal("Datum is comparable: == on two equal strings would compare their boxes")
	}
}

// TestStringDatumsCompareByValue builds equal strings in separate boxes, and
// in one shared box, and requires every value-level operation to agree.
func TestStringDatumsCompareByValue(t *testing.T) {
	var in Interner
	for _, v := range []string{"", "a", "it's", "DEALER_042", "café\n"} {
		a, b := NewString(v), NewString(v)
		if a.p == b.p {
			t.Fatalf("%q: NewString shared a box", v)
		}
		i1, i2 := in.String(v), in.String(v)
		if i1.p != i2.p {
			t.Fatalf("%q: Interner built two boxes", v)
		}
		for _, pair := range [][2]Datum{{a, b}, {i1, i2}, {i1, a}, {b, i2}} {
			x, y := pair[0], pair[1]
			if !x.Equal(y) || !y.Equal(x) {
				t.Errorf("%q: not Equal", v)
			}
			if c, err := x.Compare(y); c != 0 || err != nil {
				t.Errorf("%q: Compare = %d, %v", v, c, err)
			}
			if x.HashFold(HashSeed) != y.HashFold(HashSeed) {
				t.Errorf("%q: HashFold differs", v)
			}
			if string(x.AppendText(nil)) != string(y.AppendText(nil)) || x.Str() != v || y.Str() != v {
				t.Errorf("%q: text %s and %s", v, x, y)
			}
		}
		if w := NewString(v + "x"); a.Equal(w) || w.Equal(i1) {
			t.Errorf("%q: Equal to %q", v, v+"x")
		}
	}
}

// TestFloatPayloads runs float values whose bits are easy to lose through
// the int64 payload: every accessor must give what it gave when a float
// had a field of its own. The hashes are FNV-64a over the kind byte and the
// little-endian bits.
func TestFloatPayloads(t *testing.T) {
	cases := []struct {
		bits       uint64
		cmp0, cmp1 int // Compare with NewFloat(0) and with NewInt(1)
		equal0     bool
		hash       uint64
		text       string
	}{
		{0x8000000000000000, 0, -1, true, 0x796e5797b92a4652, "-0"},
		{0x7ff0000000000000, 1, 1, false, 0x79388a97b8fd0d8b, "+Inf"},
		{0xfff0000000000000, -1, -1, false, 0x79380a97b8fc340b, "-Inf"},
		{0x7ff8000000000abc, 0, 0, false, 0xaafe83a8420d8275, "NaN"}, // a NaN with a payload
		{0x0000000000000001, 1, -1, false, 0x98699ea0c41a69f3, "5e-324"},
		{0x7fefffffffffffff, 1, 1, false, 0xa8508d3a8cff153a, "1.7976931348623157e+308"},
	}
	for _, c := range cases {
		v := math.Float64frombits(c.bits)
		d := NewFloat(v)
		if got := math.Float64bits(d.Float()); got != c.bits {
			t.Errorf("%#x: Float bits %#x", c.bits, got)
		}
		if got := math.Float64bits(d.SortValue()); got != c.bits {
			t.Errorf("%#x: SortValue bits %#x", c.bits, got)
		}
		if got, err := d.Compare(NewFloat(0)); err != nil || got != c.cmp0 {
			t.Errorf("%#x: Compare(0.0) = %d, %v; want %d", c.bits, got, err, c.cmp0)
		}
		if got, err := d.Compare(NewInt(1)); err != nil || got != c.cmp1 {
			t.Errorf("%#x: Compare(1) = %d, %v; want %d", c.bits, got, err, c.cmp1)
		}
		if got, err := d.Compare(d); err != nil || got != 0 {
			t.Errorf("%#x: Compare(self) = %d, %v", c.bits, got, err)
		}
		if !d.Equal(d) || d.Equal(NewFloat(0)) != c.equal0 {
			t.Errorf("%#x: Equal(self) %v, Equal(0.0) %v; want true, %v", c.bits, d.Equal(d), d.Equal(NewFloat(0)), c.equal0)
		}
		if got := d.HashFold(HashSeed); got != c.hash {
			t.Errorf("%#x: HashFold %#x, want %#x", c.bits, got, c.hash)
		}
		if got := string(d.AppendText(nil)); got != c.text {
			t.Errorf("%#x: AppendText %q, want %q", c.bits, got, c.text)
		}
	}
	// Equal keeps float semantics, not bit identity: 0 == -0, and NaNs with
	// different payloads are one grouping key.
	if !NewFloat(math.NaN()).Equal(NewFloat(math.Float64frombits(0x7ff8000000000abc))) {
		t.Error("NaNs with different payloads must be Equal")
	}
}

func TestHashConsistency(t *testing.T) {
	// Equal values must hash equal.
	pairs := [][2]Datum{
		{NewInt(42), NewInt(42)},
		{NewString("hello"), NewString("hello")},
		{NewFloat(3.14), NewFloat(3.14)},
		{Null, Null},
		{NewDate(9000), NewDate(9000)},
	}
	for _, p := range pairs {
		if p[0].HashFold(HashSeed) != p[1].HashFold(HashSeed) {
			t.Errorf("hash mismatch for equal datums %v", p[0])
		}
	}
	// Different kinds with same payload should (almost surely) differ.
	if NewInt(1).HashFold(HashSeed) == NewBool(true).HashFold(HashSeed) {
		t.Error("int 1 and bool true should hash differently")
	}
	if NewInt(100).HashFold(HashSeed) == NewDate(100).HashFold(HashSeed) {
		t.Error("int and date with same payload should hash differently")
	}
}

// TestHashFoldChainOrder: a composite key's hash is deterministic and
// depends on the order its datums are folded in.
func TestHashFoldChainOrder(t *testing.T) {
	chain := func(ds ...Datum) uint64 {
		h := HashSeed
		for _, d := range ds {
			h = d.HashFold(h)
		}
		return h
	}
	h1 := chain(NewInt(1), NewString("a"))
	if h1 != chain(NewInt(1), NewString("a")) {
		t.Error("composite hash not deterministic")
	}
	if h1 == chain(NewString("a"), NewInt(1)) {
		t.Error("composite hash should be order sensitive")
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		d    Datum
		want string
	}{
		{Null, "NULL"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{NewInt(-7), "-7"},
		{NewFloat(2.5), "2.5"},
		{NewString("hi"), "'hi'"},
		{MakeDate(1998, time.September, 2), "1998-09-02"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestMakeDateRoundTrip(t *testing.T) {
	d := MakeDate(2004, time.June, 13)
	t2 := time.Unix(d.Days()*86400, 0).UTC()
	if t2.Year() != 2004 || t2.Month() != time.June || t2.Day() != 13 {
		t.Errorf("round trip failed: %v", t2)
	}
}

func TestSortValueOrderPreserving(t *testing.T) {
	if NewInt(1).SortValue() >= NewInt(2).SortValue() {
		t.Error("int sort values out of order")
	}
	if NewString("aa").SortValue() >= NewString("ab").SortValue() {
		t.Error("string sort values out of order")
	}
	if Null.SortValue() != 0 {
		t.Error("null sort value should be 0")
	}
}

// Property: Compare is antisymmetric and transitive over random ints.
func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		da, db := NewInt(a), NewInt(b)
		c1, _ := da.Compare(db)
		c2, _ := db.Compare(da)
		return c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Equal datums hash equal for random strings.
func TestHashEqualProperty(t *testing.T) {
	f := func(s string) bool {
		return NewString(s).HashFold(HashSeed) == NewString(s).HashFold(HashSeed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SortValue preserves <= for random int64 pairs.
func TestSortValuePreservesOrderProperty(t *testing.T) {
	f := func(a, b int32) bool {
		da, db := NewInt(int64(a)), NewInt(int64(b))
		c, _ := da.Compare(db)
		switch c {
		case -1:
			return da.SortValue() < db.SortValue()
		case 1:
			return da.SortValue() > db.SortValue()
		default:
			return da.SortValue() == db.SortValue()
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refDatum is the 32-byte layout a Datum had before its kind and string moved
// behind a pointer: a kind, one int64 payload (a float's bits) and a string.
// The reference functions below are written against it.
type refDatum struct {
	kind Kind
	i    int64
	s    string
}

// ref reads a datum back into the reference layout.
func ref(d Datum) refDatum {
	r := refDatum{kind: d.Kind(), i: d.i}
	if r.kind == KindString {
		r.s = d.p.s
	}
	return r
}

// datum builds the Datum r stands for, a non-string kind pointing at its
// sentinel box with r's payload as it is, and an unknown kind at a box of its
// own.
func (r refDatum) datum() Datum {
	switch r.kind {
	case KindNull:
		return Null
	case KindBool:
		return Datum{i: r.i, p: &boolBox}
	case KindInt:
		return NewInt(r.i)
	case KindFloat:
		return Datum{i: r.i, p: &floatBox}
	case KindString:
		return NewString(r.s)
	case KindDate:
		return NewDate(r.i)
	}
	return Datum{i: r.i, p: &box{kind: r.kind}}
}

// compareReference is Compare's rule set written out case by case, the
// reference Compare's same-class shortcuts must agree with.
func compareReference(d, o refDatum) (int, error) {
	if d.kind == KindNull || o.kind == KindNull {
		return 0, &ErrIncomparable{d.kind, o.kind}
	}
	if d.kind.Numeric() && o.kind.Numeric() {
		if d.kind != KindFloat && o.kind != KindFloat {
			return cmpInt(d.i, o.i), nil
		}
		return cmpFloat(d.float(), o.float()), nil
	}
	if d.kind != o.kind {
		return 0, &ErrIncomparable{d.kind, o.kind}
	}
	switch d.kind {
	case KindString:
		switch {
		case d.s < o.s:
			return -1, nil
		case d.s > o.s:
			return 1, nil
		}
		return 0, nil
	case KindBool:
		return cmpInt(d.i, o.i), nil
	}
	return 0, &ErrIncomparable{d.kind, o.kind}
}

// float is the reference Float of a numeric kind.
func (d refDatum) float() float64 {
	if d.kind == KindFloat {
		return math.Float64frombits(uint64(d.i))
	}
	return float64(d.i)
}

// equalReference is the reference Equal: same kind and same value, NULL
// equal to NULL, float 0 == -0 and NaN equal to NaN.
func equalReference(d, o refDatum) bool {
	if d.kind != o.kind {
		return false
	}
	switch d.kind {
	case KindNull:
		return true
	case KindString:
		return d.s == o.s
	case KindFloat:
		a, b := d.float(), o.float()
		return a == b || (math.IsNaN(a) && math.IsNaN(b))
	}
	return d.i == o.i
}

// pivots covers each kind, NaN, the int64 extremes and string prefixes.
func pivots() []Datum {
	return []Datum{Null, NewBool(false), NewBool(true),
		NewInt(math.MinInt64), NewInt(-1), NewInt(0), NewInt(3), NewInt(math.MaxInt64),
		NewFloat(math.Inf(-1)), NewFloat(-0.5), NewFloat(math.Copysign(0, -1)), NewFloat(0), NewFloat(3), NewFloat(math.NaN()),
		NewString(""), NewString("a"), NewString("ab"), NewString("b"),
		NewDate(-1), NewDate(0), NewDate(3)}
}

// TestCompareMatchesReference sweeps every ordered pair of the pivots.
func TestCompareMatchesReference(t *testing.T) {
	datums := pivots()
	for _, a := range datums {
		for _, b := range datums {
			got, err := a.Compare(b)
			want, wantErr := compareReference(ref(a), ref(b))
			if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Errorf("Compare(%v, %v) = %d, %v; want %d, %v", a, b, got, err, want, wantErr)
			}
		}
	}
}

// try calls f and reports whether it returned rather than panicked.
func try[T comparable](f func() T) (v T, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return f(), true
}

// checkAccessors compares every accessor of d with the reference layout's
// result for want: the value, or a panic where want's kind has none.
func checkAccessors(t *testing.T, d Datum, want refDatum) {
	t.Helper()
	k := want.kind
	intLike := k == KindInt || k == KindBool || k == KindDate
	check := func(name string, got uint64, ok bool, exp uint64, expOK bool) {
		t.Helper()
		if ok != expOK || ok && got != exp {
			t.Errorf("%+v: %s = %#x, returned %v; want %#x, returned %v", want, name, got, ok, exp, expOK)
		}
	}
	if d.Kind() != k || d.IsNull() != (k == KindNull) {
		t.Errorf("%+v: Kind %v, IsNull %v", want, d.Kind(), d.IsNull())
	}
	v, ok := try(func() int64 { return d.Int() })
	check("Int", uint64(v), ok, uint64(want.i), intLike)
	f, ok := try(func() uint64 { return math.Float64bits(d.Float()) })
	check("Float", f, ok, math.Float64bits(want.float()), intLike || k == KindFloat)
	v, ok = try(func() int64 { return d.Days() })
	check("Days", uint64(v), ok, uint64(want.i), k == KindDate)
	b, ok := try(func() bool { return d.Bool() })
	check("Bool", boolBits(b), ok, boolBits(want.i != 0), k == KindBool)
	if s, ok := try(func() string { return d.Str() }); ok != (k == KindString) || s != want.s {
		t.Errorf("%+v: Str = %q, returned %v", want, s, ok)
	}
	check("SortValue", math.Float64bits(d.SortValue()), true, math.Float64bits(sortValueReference(want)), true)
	if got, ref := string(d.AppendText(nil)), referenceText(want); got != ref || d.String() != ref {
		t.Errorf("%+v: AppendText %q, String %q; want %q", want, got, d.String(), ref)
	}
	if got, ref := d.HashFold(HashSeed), fnvOf(d); got != ref {
		t.Errorf("%+v: HashFold %#x, want %#x", want, got, ref)
	}
}

func boolBits(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// sortValueReference is the reference SortValue.
func sortValueReference(d refDatum) float64 {
	switch d.kind {
	case KindInt, KindBool, KindDate, KindFloat:
		return d.float()
	case KindString:
		var v float64
		scale := 1.0
		for i := 0; i < 8 && i < len(d.s); i++ {
			scale /= 256.0
			v += float64(d.s[i]) * scale
		}
		return v
	}
	return 0
}

// FuzzDatumLayout builds a datum of a fuzzed kind and value three times —
// twice through its constructor and once through an Interner for a string —
// and checks every accessor, AppendText and HashFold of each against the
// 32-byte reference layout, Compare and Equal between the copies and against
// the pivots both ways round, and that the copies agree with one another.
func FuzzDatumLayout(f *testing.F) {
	f.Add(uint8(KindNull), int64(0), 0.0, "")
	f.Add(uint8(KindBool), int64(1), 0.0, "")
	f.Add(uint8(KindInt), int64(-3), 0.0, "")
	f.Add(uint8(KindFloat), int64(0), math.Copysign(0, -1), "")
	f.Add(uint8(KindFloat), int64(0), math.NaN(), "")
	f.Add(uint8(KindString), int64(0), 0.0, "")
	f.Add(uint8(KindString), int64(0), 0.0, "ab")
	f.Add(uint8(KindDate), int64(10471), 0.0, "")
	f.Fuzz(func(t *testing.T, kind uint8, i int64, fl float64, s string) {
		want := refDatum{kind: Kind(kind % 6)}
		var in Interner
		build := func() Datum {
			switch want.kind {
			case KindBool:
				return NewBool(i&1 == 1)
			case KindInt:
				return NewInt(i)
			case KindFloat:
				return NewFloat(fl)
			case KindString:
				return NewString(s)
			case KindDate:
				return NewDate(i)
			}
			return Null
		}
		switch want.kind {
		case KindBool:
			want.i = i & 1
		case KindInt, KindDate:
			want.i = i
		case KindFloat:
			want.i = int64(math.Float64bits(fl))
		case KindString:
			want.s = s
		}
		copies := []Datum{build(), build(), build()}
		if want.kind == KindString {
			copies[2] = in.String(s)
		}
		for _, d := range copies {
			if got := ref(d); got != want {
				t.Fatalf("built %+v, want %+v", got, want)
			}
			checkAccessors(t, d, want)
			for _, o := range append(pivots(), copies...) {
				for _, pair := range [][2]Datum{{d, o}, {o, d}} {
					a, b := pair[0], pair[1]
					got, err := a.Compare(b)
					cmp, cmpErr := compareReference(ref(a), ref(b))
					if got != cmp || fmt.Sprint(err) != fmt.Sprint(cmpErr) {
						t.Errorf("Compare(%v, %v) = %d, %v; want %d, %v", a, b, got, err, cmp, cmpErr)
					}
					if a.Equal(b) != equalReference(ref(a), ref(b)) {
						t.Errorf("Equal(%v, %v) = %v", a, b, a.Equal(b))
					}
				}
			}
		}
	})
}
