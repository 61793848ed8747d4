// Package fixovf is a poplint fixture: raw int64 tick products the overflow
// rule must catch — a product passed straight to Meter.AddTicks, one routed
// through a local, and a `*=`.
package fixovf

import "repro/internal/executor"

// charge meters a per-row rate times a batch length directly.
func charge(m *executor.Meter, perRow int64, rows int) {
	m.AddTicks(perRow * int64(rows)) // want overflow
}

// viaLocal routes the product through a local before metering it.
func viaLocal(m *executor.Meter, perRow, k int64) {
	t := perRow * k // want overflow
	m.AddTicks(t)
}

// scaleInPlace scales the rate in place.
func scaleInPlace(m *executor.Meter, perRow, k int64) {
	perRow *= k // want overflow
	m.AddTicks(perRow)
}
