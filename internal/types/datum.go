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

// Datum is a single scalar value. The zero value is NULL. It is 32 bytes:
// every kind but a string keeps its value in the one int64 payload, a float
// as its IEEE-754 bits.
type Datum struct {
	kind Kind
	i    int64 // int, bool (0/1), date (days since 1970-01-01), float bits
	s    string
}

// Null is the SQL NULL value.
var Null = Datum{}

// NewInt returns an integer datum.
func NewInt(v int64) Datum { return Datum{kind: KindInt, i: v} }

// NewFloat returns a double-precision datum.
func NewFloat(v float64) Datum { return Datum{kind: KindFloat, i: int64(math.Float64bits(v))} }

// NewString returns a string datum.
func NewString(v string) Datum { return Datum{kind: KindString, s: v} }

// NewBool returns a boolean datum.
func NewBool(v bool) Datum {
	var i int64
	if v {
		i = 1
	}
	return Datum{kind: KindBool, i: i}
}

// NewDate returns a date datum holding the given number of days since the
// Unix epoch.
func NewDate(days int64) Datum { return Datum{kind: KindDate, i: days} }

// MakeDate returns a date datum for the given calendar day.
func MakeDate(year int, month time.Month, day int) Datum {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return NewDate(int64(t.Unix() / 86400))
}

// Kind returns the datum's kind.
func (d Datum) Kind() Kind { return d.kind }

// IsNull reports whether the datum is SQL NULL.
func (d Datum) IsNull() bool { return d.kind == KindNull }

// Int returns the integer value. It panics if the datum is not an integer,
// boolean or date; use Kind to check first.
func (d Datum) Int() int64 {
	switch d.kind {
	case KindInt, KindBool, KindDate:
		return d.i
	default:
		panic(fmt.Sprintf("types: Int() on %s datum", d.kind))
	}
}

// Float returns the value as a float64, coercing integers and dates.
func (d Datum) Float() float64 {
	switch d.kind {
	case KindFloat:
		return d.f()
	case KindInt, KindBool, KindDate:
		return float64(d.i)
	default:
		panic(fmt.Sprintf("types: Float() on %s datum", d.kind))
	}
}

// f reads a float datum's value back from its payload bits.
func (d Datum) f() float64 { return math.Float64frombits(uint64(d.i)) }

// Str returns the string value. It panics for non-string datums.
func (d Datum) Str() string {
	if d.kind != KindString {
		panic(fmt.Sprintf("types: Str() on %s datum", d.kind))
	}
	return d.s
}

// Bool returns the boolean value. It panics for non-boolean datums.
func (d Datum) Bool() bool {
	if d.kind != KindBool {
		panic(fmt.Sprintf("types: Bool() on %s datum", d.kind))
	}
	return d.i != 0
}

// Days returns the number of days since the Unix epoch for a date datum.
func (d Datum) Days() int64 {
	if d.kind != KindDate {
		panic(fmt.Sprintf("types: Days() on %s datum", d.kind))
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
// level up, in package expr. The same-class pairs come first: int and date
// against int and date compare on int64, float against float and string
// against string directly.
func (d Datum) Compare(o Datum) (int, error) {
	switch {
	case (d.kind == KindInt || d.kind == KindDate) && (o.kind == KindInt || o.kind == KindDate):
		return cmpInt(d.i, o.i), nil
	case d.kind == KindString && o.kind == KindString:
		return strings.Compare(d.s, o.s), nil
	case d.kind == KindFloat && o.kind == KindFloat:
		return cmpFloat(d.f(), o.f()), nil
	case d.kind == KindNull || o.kind == KindNull:
		return 0, &ErrIncomparable{d.kind, o.kind}
	case d.kind.Numeric() && o.kind.Numeric():
		return cmpFloat(d.Float(), o.Float()), nil
	case d.kind == KindBool && o.kind == KindBool:
		return cmpInt(d.i, o.i), nil
	}
	return 0, &ErrIncomparable{d.kind, o.kind}
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
// grouping/hashing, not SQL equality.
func (d Datum) Equal(o Datum) bool {
	if d.kind != o.kind {
		// Int/float/date cross-kind numeric identity is intentionally not
		// collapsed: grouping treats 1 and 1.0 as distinct keys, matching
		// their distinct hash values.
		return false
	}
	switch d.kind {
	case KindNull:
		return true
	case KindString:
		return d.s == o.s
	case KindFloat:
		a, b := d.f(), o.f()
		return a == b || (math.IsNaN(a) && math.IsNaN(b))
	default:
		return d.i == o.i
	}
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
	h = (h ^ uint64(byte(d.kind))) * fnv64Prime
	switch d.kind {
	case KindNull:
	case KindString:
		for i := 0; i < len(d.s); i++ {
			h = (h ^ uint64(d.s[i])) * fnv64Prime
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
	switch d.kind {
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
		dst = append(dst, d.s...)
		return append(dst, '\'')
	case KindDate:
		return appendDate(dst, d.i)
	default:
		dst = append(dst, "Datum(kind="...)
		dst = strconv.AppendUint(dst, uint64(d.kind), 10)
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
	switch d.kind {
	case KindInt, KindBool, KindDate:
		return float64(d.i)
	case KindFloat:
		return d.f()
	case KindString:
		// Project the first 8 bytes onto a float: order-preserving for the
		// prefix, adequate for interpolation within histogram buckets.
		var v float64
		scale := 1.0
		for i := 0; i < 8 && i < len(d.s); i++ {
			scale /= 256.0
			v += float64(d.s[i]) * scale
		}
		return v
	default:
		return 0
	}
}
