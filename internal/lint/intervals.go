package lint

// Int64 interval lattice: the numeric component of the abstract-interpretation
// value layer (absint.go). An Interval abstracts the set of int64 values a
// variable may hold at a program point.
//
// Representation: [Lo, Hi] with math.MinInt64 doubling as -∞ and
// math.MaxInt64 as +∞. The sentinels deliberately alias the extreme finite
// values — a variable proven to be exactly MaxInt64 is indistinguishable from
// "unbounded above", which only ever makes the analysis weaker (an overflow
// that cannot be ruled out), never unsound. Lo > Hi encodes the empty
// interval (an infeasible refinement: the branch cannot be taken).
//
// All arithmetic saturates at the sentinels, so interval bounds themselves
// never wrap: satMul64/satAdd64 detect native overflow exactly (via
// math/bits for products) and pin the result to ±∞. FuzzIntervals checks the
// transfer functions against a brute-force small-domain oracle.

import (
	"fmt"
	"math"
	"math/bits"
)

// Interval is a set of int64 values [Lo, Hi]; see the package comment above
// for the sentinel and emptiness conventions.
type Interval struct {
	Lo, Hi int64
}

// FullInterval is the lattice top: every int64 value.
func FullInterval() Interval { return Interval{math.MinInt64, math.MaxInt64} }

// EmptyInterval is the lattice bottom: no values (infeasible).
func EmptyInterval() Interval { return Interval{math.MaxInt64, math.MinInt64} }

// ConstInterval is the singleton interval {c}.
func ConstInterval(c int64) Interval { return Interval{c, c} }

// IsEmpty reports the empty (infeasible) interval.
func (iv Interval) IsEmpty() bool { return iv.Lo > iv.Hi }

// Contains reports whether c may be a value of iv.
func (iv Interval) Contains(c int64) bool { return iv.Lo <= c && c <= iv.Hi }

// BoundedBelow reports a proven finite lower bound (Lo is not the -∞ sentinel).
func (iv Interval) BoundedBelow() bool { return !iv.IsEmpty() && iv.Lo != math.MinInt64 }

// BoundedAbove reports a proven finite upper bound (Hi is not the +∞ sentinel).
func (iv Interval) BoundedAbove() bool { return !iv.IsEmpty() && iv.Hi != math.MaxInt64 }

// String renders the interval for findings: sentinels print as -inf/+inf.
func (iv Interval) String() string {
	if iv.IsEmpty() {
		return "[empty]"
	}
	lo, hi := "-inf", "+inf"
	if iv.Lo != math.MinInt64 {
		lo = fmt.Sprintf("%d", iv.Lo)
	}
	if iv.Hi != math.MaxInt64 {
		hi = fmt.Sprintf("%d", iv.Hi)
	}
	return "[" + lo + ", " + hi + "]"
}

// Join is the convex hull (lattice join): the smallest interval containing
// both operands.
func (a Interval) Join(b Interval) Interval {
	if a.IsEmpty() {
		return b
	}
	if b.IsEmpty() {
		return a
	}
	lo, hi := a.Lo, a.Hi
	if b.Lo < lo {
		lo = b.Lo
	}
	if b.Hi > hi {
		hi = b.Hi
	}
	return Interval{lo, hi}
}

// Meet is the intersection (lattice meet); empty when disjoint.
func (a Interval) Meet(b Interval) Interval {
	lo, hi := a.Lo, a.Hi
	if b.Lo > lo {
		lo = b.Lo
	}
	if b.Hi < hi {
		hi = b.Hi
	}
	return Interval{lo, hi}
}

// Widen accelerates fixpoint convergence at loop heads: any bound of next
// that moved past the corresponding bound of prev jumps straight to its
// sentinel, so a counter growing by one per iteration stabilizes in one
// widening step instead of one step per possible value.
func (prev Interval) Widen(next Interval) Interval {
	if prev.IsEmpty() {
		return next
	}
	if next.IsEmpty() {
		return prev
	}
	w := next
	if next.Lo < prev.Lo {
		w.Lo = math.MinInt64
	}
	if next.Hi > prev.Hi {
		w.Hi = math.MaxInt64
	}
	return w
}

// satAdd64 adds with saturation at the ±∞ sentinels.
func satAdd64(a, b int64) int64 {
	s := a + b
	// Overflow iff operands share a sign and the sum's sign differs.
	if (a >= 0) == (b >= 0) && (s >= 0) != (a >= 0) {
		if a >= 0 {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return s
}

// mul64Overflows reports whether a*b overflows int64, exactly.
func mul64Overflows(a, b int64) bool {
	if a == 0 || b == 0 {
		return false
	}
	// Work in unsigned magnitudes; MinInt64's magnitude is representable in
	// uint64.
	au, bu := absU64(a), absU64(b)
	hi, lo := bits.Mul64(au, bu)
	if hi != 0 {
		return true
	}
	if (a < 0) != (b < 0) {
		return lo > 1<<63 // most negative product is -2^63
	}
	return lo > math.MaxInt64
}

func absU64(v int64) uint64 {
	if v >= 0 {
		return uint64(v)
	}
	return uint64(-(v + 1)) + 1 // handles MinInt64
}

// satMul64 multiplies with saturation at the ±∞ sentinels.
func satMul64(a, b int64) int64 {
	if !mul64Overflows(a, b) {
		return a * b
	}
	if (a < 0) != (b < 0) {
		return math.MinInt64
	}
	return math.MaxInt64
}

// Add is interval addition (saturating at the sentinels).
func (a Interval) Add(b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return EmptyInterval()
	}
	return Interval{satAdd64(a.Lo, b.Lo), satAdd64(a.Hi, b.Hi)}
}

// Sub is interval subtraction.
func (a Interval) Sub(b Interval) Interval {
	return a.Add(b.Neg())
}

// Neg negates an interval ([-hi, -lo], saturating MinInt64's negation).
func (a Interval) Neg() Interval {
	if a.IsEmpty() {
		return a
	}
	neg := func(v int64) int64 {
		if v == math.MinInt64 {
			return math.MaxInt64
		}
		return -v
	}
	return Interval{neg(a.Hi), neg(a.Lo)}
}

// Mul is interval multiplication: the hull of the four corner products,
// saturating at the sentinels. A sentinel bound is treated as "unboundedly
// large finite", so 0·∞ = 0 (the variable is unbounded, not actually
// infinite).
func (a Interval) Mul(b Interval) Interval {
	if a.IsEmpty() || b.IsEmpty() {
		return EmptyInterval()
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, x := range [2]int64{a.Lo, a.Hi} {
		for _, y := range [2]int64{b.Lo, b.Hi} {
			p := satMul64(x, y)
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
	}
	return Interval{lo, hi}
}

// MulCanOverflow reports whether some x∈a, y∈b has a product outside int64.
// A sentinel bound counts as arbitrarily large, so unknown×unknown can
// always overflow — the overflow rule's may-semantics for products.
func (a Interval) MulCanOverflow(b Interval) bool {
	if a.IsEmpty() || b.IsEmpty() {
		return false
	}
	for _, x := range [2]int64{a.Lo, a.Hi} {
		for _, y := range [2]int64{b.Lo, b.Hi} {
			if mul64Overflows(x, y) {
				return true
			}
		}
	}
	return false
}

// AddMustOverflow reports whether EVERY x∈a, y∈b sums outside int64 — the
// overflow rule's proven-semantics for additions. Sentinel bounds prove
// nothing, so unknown operands never trigger it.
func (a Interval) AddMustOverflow(b Interval) bool {
	if a.IsEmpty() || b.IsEmpty() || !a.BoundedBelow() || !b.BoundedBelow() {
		// Also rules out sentinel Lo values posing as proven bounds.
	} else if a.Lo > 0 && b.Lo > 0 && a.Lo > math.MaxInt64-b.Lo {
		return true // minimum possible sum already exceeds MaxInt64
	}
	if a.IsEmpty() || b.IsEmpty() || !a.BoundedAbove() || !b.BoundedAbove() {
		return false
	}
	return a.Hi < 0 && b.Hi < 0 && a.Hi < math.MinInt64-b.Hi // maximum sum below MinInt64
}

// typeRange returns the value range of a sized integer type given its bit
// width and signedness; 64-bit and unknown widths map to the full interval.
func typeRange(bitsN int, signed bool) Interval {
	if bitsN <= 0 || bitsN >= 64 {
		if !signed {
			return Interval{0, math.MaxInt64} // uint64/uint: low half proven
		}
		return FullInterval()
	}
	if signed {
		lim := int64(1) << (bitsN - 1)
		return Interval{-lim, lim - 1}
	}
	return Interval{0, int64(1)<<bitsN - 1}
}
