// Package types defines Datum, the dynamically typed scalar value that flows
// through every operator of the engine, together with comparison, hashing and
// formatting primitives. Datum is a small value type: copying it is cheap and
// rows are plain []Datum slices.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the scalar types supported by the engine.
type Kind uint8

// The supported datum kinds. KindNull is the kind of the SQL NULL value,
// which compares as unknown and hashes to a fixed sentinel.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Numeric reports whether values of this kind participate in arithmetic and
// numeric comparison coercion.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat || k == KindDate }

// Datum is a single scalar value. The zero value is NULL. It is 16 bytes:
// an int64 payload and a pointer to a box that holds the kind and, for a
// string, its value. Every kind but a string keeps its value in the payload,
// a float as its IEEE-754 bits, and points at its kind's package-level
// sentinel box, so building one allocates nothing and the hot paths tell
// kinds apart by comparing p with the sentinels' addresses. NULL is p == nil.
// A string points at a box of its own; datums copied from one string share
// its box, which Interner uses to store each distinct value of a loaded
// column once.
//
// Datum is not comparable: with == two equal strings in different boxes
// would differ. Equal is its identity.
type Datum struct {
	_ [0]func() // first: a trailing zero-size field would pad the struct
	i int64     // int, bool (0/1), date (days since 1970-01-01), float bits
	p *box
}

// box is what a Datum points at: a kind, and a string datum's value.
type box struct {
	kind Kind
	s    string
}

// The sentinel boxes of the non-string kinds. They are never written.
var (
	boolBox  = box{kind: KindBool}
	intBox   = box{kind: KindInt}
	floatBox = box{kind: KindFloat}
	dateBox  = box{kind: KindDate}
)

// Null is the SQL NULL value.
var Null = Datum{}

// NewInt returns an integer datum.
func NewInt(v int64) Datum { return Datum{i: v, p: &intBox} }

// NewFloat returns a double-precision datum.
func NewFloat(v float64) Datum { return Datum{i: int64(math.Float64bits(v)), p: &floatBox} }

// NewString returns a string datum. It allocates the datum's box; a loader
// that repeats values builds them through an Interner instead.
func NewString(v string) Datum { return Datum{p: &box{kind: KindString, s: v}} }

// NewBool returns a boolean datum.
func NewBool(v bool) Datum {
	var i int64
	if v {
		i = 1
	}
	return Datum{i: i, p: &boolBox}
}

// NewDate returns a date datum holding the given number of days since the
// Unix epoch.
func NewDate(days int64) Datum { return Datum{i: days, p: &dateBox} }

// MakeDate returns a date datum for the given calendar day.
func MakeDate(year int, month time.Month, day int) Datum {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return NewDate(int64(t.Unix() / 86400))
}

// Interner builds one string datum per distinct value: every datum it
// returns for equal strings shares one box. A loader keeps one for the
// duration of a load; the zero value is ready to use.
type Interner struct{ m map[string]Datum }

// String returns the string datum for v, building it on first use.
func (in *Interner) String(v string) Datum {
	if d, ok := in.m[v]; ok {
		return d
	}
	if in.m == nil {
		in.m = make(map[string]Datum)
	}
	d := NewString(v)
	in.m[v] = d
	return d
}

// Kind returns the datum's kind.
func (d Datum) Kind() Kind {
	switch d.p {
	case nil:
		return KindNull
	case &intBox:
		return KindInt
	case &floatBox:
		return KindFloat
	case &dateBox:
		return KindDate
	}
	return d.p.kind
}

// IsNull reports whether the datum is SQL NULL.
func (d Datum) IsNull() bool { return d.p == nil }

// intLike reports whether the payload is the value: an int, bool or date.
func (d Datum) intLike() bool { return d.p == &intBox || d.p == &dateBox || d.p == &boolBox }

// Int returns the integer value. It panics if the datum is not an integer,
// boolean or date; use Kind to check first.
func (d Datum) Int() int64 {
	if !d.intLike() {
		d.wrongKind("Int")
	}
	return d.i
}

// Float returns the value as a float64, coercing integers and dates.
func (d Datum) Float() float64 {
	if d.p == &floatBox {
		return d.f()
	}
	if !d.intLike() {
		d.wrongKind("Float")
	}
	return float64(d.i)
}

// wrongKind panics for an accessor called on a datum of another kind. It
// is a call of its own to keep Str, Bool and Days small enough to inline.
func (d Datum) wrongKind(accessor string) {
	panic(fmt.Sprintf("types: %s() on %s datum", accessor, d.Kind()))
}

// f reads a float datum's value back from its payload bits.
func (d Datum) f() float64 { return math.Float64frombits(uint64(d.i)) }

// Str returns the string value. It panics for non-string datums.
func (d Datum) Str() string {
	if d.p == nil || d.p.kind != KindString {
		d.wrongKind("Str")
	}
	return d.p.s
}

// Bool returns the boolean value. It panics for non-boolean datums.
func (d Datum) Bool() bool {
	if d.p != &boolBox {
		d.wrongKind("Bool")
	}
	return d.i != 0
}

// Days returns the number of days since the Unix epoch for a date datum.
func (d Datum) Days() int64 {
	if d.p != &dateBox {
		d.wrongKind("Days")
	}
	return d.i
}

// ErrIncomparable is returned by Compare when two datums cannot be ordered.
type ErrIncomparable struct{ A, B Kind }

func (e *ErrIncomparable) Error() string {
	return fmt.Sprintf("types: cannot compare %s with %s", e.A, e.B)
}

// Compare orders two non-NULL datums, returning -1, 0 or +1. Integers,
// floats and dates compare numerically across kinds; strings compare
// lexicographically; booleans order false < true. Comparing a NULL or
// incompatible kinds returns an error — SQL three-valued logic is handled a
// level up, in package expr. The same-class pairs come first, told apart by
// their sentinel boxes' addresses: int and date against int and date compare
// on int64, float against float directly, and two datums sharing a string box
// are equal without reading the string.
func (d Datum) Compare(o Datum) (int, error) {
	switch {
	case (d.p == &intBox || d.p == &dateBox) && (o.p == &intBox || o.p == &dateBox):
		return cmpInt(d.i, o.i), nil
	case d.p == &floatBox && o.p == &floatBox:
		return cmpFloat(d.f(), o.f()), nil
	}
	dk, ok := d.Kind(), o.Kind()
	switch {
	case dk == KindString && ok == KindString:
		if d.p == o.p {
			return 0, nil
		}
		return strings.Compare(d.p.s, o.p.s), nil
	case dk == KindNull || ok == KindNull:
		return 0, &ErrIncomparable{dk, ok}
	case dk.Numeric() && ok.Numeric():
		return cmpFloat(d.Float(), o.Float()), nil
	case dk == KindBool && ok == KindBool:
		return cmpInt(d.i, o.i), nil
	}
	return 0, &ErrIncomparable{dk, ok}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// MustCompare is Compare for callers that have already verified
// comparability; it panics on error.
func (d Datum) MustCompare(o Datum) int {
	c, err := d.Compare(o)
	if err != nil {
		panic(err)
	}
	return c
}

// Equal reports whether two datums are identical values (same kind, same
// value). Unlike Compare, NULL equals NULL here; Equal is identity for
// grouping/hashing, not SQL equality. Int/float/date cross-kind numeric
// identity is intentionally not collapsed: grouping treats 1 and 1.0 as
// distinct keys, matching their distinct hash values.
func (d Datum) Equal(o Datum) bool {
	if d.p == o.p { // one kind's sentinel, one shared string box, or NULL
		switch d.p {
		case nil:
			return true
		case &floatBox:
			a, b := d.f(), o.f()
			return a == b || (math.IsNaN(a) && math.IsNaN(b))
		}
		return d.i == o.i
	}
	if d.p == nil || o.p == nil || d.p.kind != o.p.kind {
		return false
	}
	if d.p.kind == KindString {
		return d.p.s == o.p.s
	}
	return d.i == o.i
}

// FNV-64a parameters, mirrored from hash/fnv so that a HashFold chain
// equals fnv.New64a over each datum's kind byte and payload bytes.
const (
	fnv64Offset uint64 = 14695981039346656037
	fnv64Prime  uint64 = 1099511628211
)

// HashSeed is the initial state of a HashFold chain: the FNV-64a offset
// basis.
const HashSeed uint64 = fnv64Offset

// HashFold mixes the datum into a running FNV-64a state and returns the new
// state, with no allocation: the bytes folded are the kind, then a string's
// bytes, or the int64 payload little-endian (an int, bool, date, or a
// float's bits), or nothing for NULL. It tells kinds apart, as Equal does.
// The executor's hash joins and aggregations hash composite keys by
// chaining HashFold from HashSeed, a numeric join key folded as a float of
// its value so that it agrees with Compare.
func (d Datum) HashFold(h uint64) uint64 {
	k := d.Kind()
	h = (h ^ uint64(byte(k))) * fnv64Prime
	switch k {
	case KindNull:
	case KindString:
		s := d.p.s
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * fnv64Prime
		}
	default: // int, bool, date, and a float's bits
		h = fnvFoldUint64(h, uint64(d.i))
	}
	return h
}

// fnvFoldUint64 folds the little-endian bytes of v into an FNV-64a state.
// It is unrolled: every hash-join and grouping key of an int, date or float
// column passes through it.
func fnvFoldUint64(h, v uint64) uint64 {
	h = (h ^ v&0xff) * fnv64Prime
	h = (h ^ v>>8&0xff) * fnv64Prime
	h = (h ^ v>>16&0xff) * fnv64Prime
	h = (h ^ v>>24&0xff) * fnv64Prime
	h = (h ^ v>>32&0xff) * fnv64Prime
	h = (h ^ v>>40&0xff) * fnv64Prime
	h = (h ^ v>>48&0xff) * fnv64Prime
	return (h ^ v>>56) * fnv64Prime
}

// String renders the datum for display and plan text: AppendText's bytes.
func (d Datum) String() string {
	var buf [32]byte // on the stack: a short value costs only the string
	return string(d.AppendText(buf[:0]))
}

// AppendText appends the datum's text to dst and returns the extended slice.
// It is the engine's one text renderer: EXPLAIN, plan-cache keys and the
// server's reply rows all print through it.
func (d Datum) AppendText(dst []byte) []byte {
	switch k := d.Kind(); k {
	case KindNull:
		return append(dst, "NULL"...)
	case KindBool:
		if d.i != 0 {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case KindInt:
		return strconv.AppendInt(dst, d.i, 10)
	case KindFloat:
		return appendFloat(dst, d.f())
	case KindString:
		dst = append(dst, '\'')
		dst = append(dst, d.p.s...)
		return append(dst, '\'')
	case KindDate:
		return appendDate(dst, d.i)
	default:
		dst = append(dst, "Datum(kind="...)
		dst = strconv.AppendUint(dst, uint64(k), 10)
		return append(dst, ')')
	}
}

// appendFloat appends strconv's shortest 'g' text of v. A whole number of
// magnitude in [1, 1e6) (a quantity, a count) is printed as the integer it
// is, skipping the shortest-digit search: its digits are exact, and its
// exponent, 0 to 5, is below the 6 at which shortest 'g' switches to %e
// (1e6 prints as 1e+06). Every other value, ±0, ±Inf and NaN included, goes
// to strconv.
func appendFloat(dst []byte, v float64) []byte {
	if a := math.Abs(v); a >= 1 && a < 1e6 && a == math.Trunc(a) {
		return strconv.AppendInt(dst, int64(v), 10)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// Days since the epoch of the first and last day appendDate renders with
// integer arithmetic: 0000-01-01 and 9999-12-31.
const (
	minCivilDay = -719528
	maxCivilDay = 2932896
)

// appendDate appends the YYYY-MM-DD form of the date days after 1970-01-01,
// the text time.Format("2006-01-02") prints for it. Years 0-9999 use
// civil-from-days arithmetic on the proleptic Gregorian calendar (H. Hinnant,
// "chrono-Compatible Low-Level Date Algorithms"); others go through time.
func appendDate(dst []byte, days int64) []byte {
	if days < minCivilDay || days > maxCivilDay {
		return time.Unix(days*86400, 0).UTC().AppendFormat(dst, "2006-01-02")
	}
	z := days + 719468 // days since 0000-03-01
	era := z / 146097  // 400-year eras; z < 0 only in Jan-Feb of year 0
	if z < 0 {
		era = -1
	}
	doe := z - era*146097                                  // day of era, [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // year of era, [0, 399]
	doy := doe - (365*yoe + yoe/4 - yoe/100)               // day of March-based year, [0, 365]
	mp := (5*doy + 2) / 153                                // March-based month, [0, 11]
	day := doy - (153*mp+2)/5 + 1
	month, year := mp+3, yoe+era*400
	if month > 12 {
		month -= 12
		year++
	}
	return append(dst,
		byte('0'+year/1000), byte('0'+year/100%10), byte('0'+year/10%10), byte('0'+year%10), '-',
		byte('0'+month/10), byte('0'+month%10), '-',
		byte('0'+day/10), byte('0'+day%10))
}

// SortValue returns a float64 that preserves the ordering of comparable
// datums of a numeric kind; histogram construction uses it to compute bucket
// boundaries. For strings it returns a prefix-based projection that preserves
// order only approximately (sufficient for selectivity interpolation).
func (d Datum) SortValue() float64 {
	switch d.Kind() {
	case KindInt, KindBool, KindDate:
		return float64(d.i)
	case KindFloat:
		return d.f()
	case KindString:
		// Project the first 8 bytes onto a float: order-preserving for the
		// prefix, adequate for interpolation within histogram buckets.
		var v float64
		scale := 1.0
		for i, s := 0, d.p.s; i < 8 && i < len(s); i++ {
			scale /= 256.0
			v += float64(s[i]) * scale
		}
		return v
	default:
		return 0
	}
}
