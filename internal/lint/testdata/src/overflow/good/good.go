// Package fixovfgood is the clean twin of the overflow fixture: products of
// other types, products the type checker folds to a constant, and the one
// raw int64 product inside a mulTicksSat helper.
package fixovfgood

import (
	"math"

	"repro/internal/executor"
)

// slot is an int slab-index product.
func slot(row, width, col int) int {
	return row*width + col
}

// home is a uint64 hash multiply.
func home(h uint64, shift uint) uint64 {
	return (h * 0x9E3779B97F4A7C15) >> shift
}

// batchTicks is a constant product.
const batchTicks int64 = 64 * (1 << 20)

// chargeConst meters a product of constants.
func chargeConst(m *executor.Meter) {
	m.AddTicks(batchTicks * 2)
}

// charge multiplies through the saturating helper.
func charge(m *executor.Meter, perRow int64, rows int) {
	m.AddTicks(mulTicksSat(perRow, int64(rows)))
}

// mulTicksSat multiplies a tick rate by a row count, saturating at MaxInt64.
func mulTicksSat(perRow, k int64) int64 {
	if perRow <= 0 || k <= 0 {
		return 0
	}
	if perRow > math.MaxInt64/k {
		return math.MaxInt64
	}
	return perRow * k
}
