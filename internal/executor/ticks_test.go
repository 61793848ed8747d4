package executor

import (
	"math"
	"testing"
)

// TestMulTicksSat pins the saturating multiply every metering hot path now
// funnels through: exact products in range, MaxInt64 (never a wrapped
// negative) past it, and zero for non-positive operands.
func TestMulTicksSat(t *testing.T) {
	cases := []struct {
		perRow, k, want int64
	}{
		{0, 5, 0},
		{5, 0, 0},
		{-3, 7, 0},
		{3, -7, 0},
		{1, 1, 1},
		{1000, 4096, 4096000},
		{math.MaxInt64, 1, math.MaxInt64},
		{1, math.MaxInt64, math.MaxInt64},
		{math.MaxInt64, 2, math.MaxInt64},
		{math.MaxInt64/2 + 1, 2, math.MaxInt64},
		{math.MaxInt64 / 2, 2, math.MaxInt64 - 1},
		{3037000500, 3037000500, math.MaxInt64}, // ~sqrt(MaxInt64) squared wraps
	}
	for _, tc := range cases {
		if got := mulTicksSat(tc.perRow, tc.k); got != tc.want {
			t.Errorf("mulTicksSat(%d, %d) = %d, want %d", tc.perRow, tc.k, got, tc.want)
		}
		if got := mulTicksSat(tc.perRow, tc.k); got < 0 {
			t.Errorf("mulTicksSat(%d, %d) went negative: %d", tc.perRow, tc.k, got)
		}
	}
}

// TestChargeTicksSaturates drives the chargeTicks path with a rate that
// would wrap int64: the meter must pin at MaxInt64, not go negative.
func TestChargeTicksSaturates(t *testing.T) {
	e := &Executor{Meter: &Meter{}}
	var b base
	b.chargeTicks(e, math.MaxInt64/2, 3)
	if got := e.Meter.ticks.Load(); got != math.MaxInt64 {
		t.Fatalf("meter after saturating charge = %d, want MaxInt64", got)
	}
}

// TestMeterSaturatesAfterMaxInt64 charges one more tick to a meter already
// pinned at MaxInt64: it must stay pinned, not wrap negative.
func TestMeterSaturatesAfterMaxInt64(t *testing.T) {
	m := &Meter{}
	m.AddTicks(math.MaxInt64)
	m.AddTicks(1)
	if got := m.ticks.Load(); got != math.MaxInt64 {
		t.Fatalf("saturated meter after a 1-tick charge = %d, want MaxInt64", got)
	}
}

// TestDrainSaturates drains a saturated worker meter into a statement meter
// that already holds ticks: the sum must pin at MaxInt64.
func TestDrainSaturates(t *testing.T) {
	worker, dst := &Meter{}, &Meter{}
	worker.AddTicks(math.MaxInt64)
	dst.AddTicks(5)
	worker.drain(dst)
	if got := dst.ticks.Load(); got != math.MaxInt64 {
		t.Fatalf("drain of a saturated worker meter = %d, want MaxInt64", got)
	}
	if got := worker.ticks.Load(); got != 0 {
		t.Fatalf("drained worker meter holds %d ticks, want 0", got)
	}
}

// TestAddPastInt64Saturates charges a work amount whose tick count int64
// cannot hold (1e13 units is about 1.05e19 ticks): the meter must read
// MaxInt64. Ticks itself saturates for that amount, +Inf and NaN.
func TestAddPastInt64Saturates(t *testing.T) {
	m := &Meter{}
	m.Add(1e13)
	if got := m.ticks.Load(); got != math.MaxInt64 {
		t.Fatalf("meter after Add(1e13) = %d, want MaxInt64", got)
	}
	for _, w := range []float64{1e13, math.Inf(1), math.NaN()} {
		if got := Ticks(w); got != math.MaxInt64 {
			t.Errorf("Ticks(%v) = %d, want MaxInt64", w, got)
		}
	}
}
