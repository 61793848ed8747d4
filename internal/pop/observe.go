package pop

// Observability glue: the runner stamps statement identity and attempt
// numbers onto trace events, fingerprints chosen plans, and republishes the
// per-operator runtime stats as operator_done events.

import (
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/executor"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/trace"
)

// stampRecorder decorates every event emitted during one statement with the
// statement's signature and the attempt number current at emission time.
// Executor-side producers (CHECK operators) know neither. A statement runs on
// one goroutine, so the attempt needs no synchronization.
type stampRecorder struct {
	r       trace.Recorder
	query   string
	attempt int
}

func (s *stampRecorder) Record(ev trace.Event) {
	ev.Query = s.query
	ev.Attempt = s.attempt
	s.r.Record(ev)
}

// querySig names a statement in the trace: the signature of its full table
// subset (every alias, sorted), bound-parameter-scoped when the runner is.
func querySig(q *logical.Query) string {
	return optimizer.Signature(q, (uint64(1)<<uint(len(q.Tables)))-1)
}

// PlanSig fingerprints a plan as the FNV-64a hash of its rendered EXPLAIN:
// cheap, stable across processes, and sensitive to exactly the differences
// EXPLAIN shows. Trace consumers compare it across attempts to see whether a
// re-optimization actually changed the plan.
func PlanSig(p *optimizer.Plan, q *logical.Query) string {
	return fnvHex(optimizer.Explain(p, q))
}

// fnvHex is the FNV-64a hash of s in hex, the trace's fingerprint format.
func fnvHex(s string) string {
	h := fnv.New64a()
	io.WriteString(h, s)
	return fmt.Sprintf("%016x", h.Sum64())
}

// emitOperatorStats republishes a collected stats tree as one operator_done
// event per operator.
func emitOperatorStats(tr trace.Recorder, sn *executor.StatsNode) {
	sn.Walk(func(n *executor.StatsNode) {
		op := &trace.OpInfo{
			Op:     n.Plan.Op.String(),
			Est:    n.Plan.Card,
			Actual: n.Stats.RowsOut,
			Work:   n.Stats.Work,
			Spill:  n.Stats.Spilled,
		}
		tr.Record(trace.Event{Kind: trace.OperatorDone, Op: op})
	})
}
