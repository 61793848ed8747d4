// Package fixallowval pins //poplint:allow coverage for the overflow rule:
// the annotated site must be suppressed with annotations honored and
// resurface with suppression disabled, and the unannotated twin must keep
// firing either way.
package fixallowval

import "repro/internal/executor"

// allowedCharge carries a reasoned allow on a raw tick product.
func allowedCharge(m *executor.Meter, perRow int64, rows int) {
	m.AddTicks(perRow * int64(rows)) //poplint:allow overflow fixture pin: suppression must cover overflow findings
}

// plainCharge is the unannotated twin: it must keep firing.
func plainCharge(m *executor.Meter, perRow int64, rows int) {
	m.AddTicks(perRow * int64(rows)) // want overflow
}
