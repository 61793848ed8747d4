package executor

// EXPLAIN ANALYZE support: after an execution, CollectStats folds the
// executable tree's per-node runtime counters into a stats tree that mirrors
// the plan. FormatStats renders that tree in the style of
// optimizer.Explain, with the estimate and the observed cardinality side by
// side — the per-operator view of the estimation errors POP's checkpoints
// guard against.

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/optimizer"
)

// indexed is implemented by the nodes that descend a B+tree, so the stats
// tree can price the descent.
type indexed interface {
	indexHeight() int
}

func (n *indexScanNode) indexHeight() int { return n.ix.Height() }
func (p *probeState) indexHeight() int    { return p.ix.Height() }

// StatsNode is one operator's runtime stats. Model is the operator's own
// modeled cost at the cardinalities the run observed (see fillModel) — the
// number Stats.Work equals when the cost model and the meter agree.
type StatsNode struct {
	Plan     *optimizer.Plan
	Stats    NodeStats
	Model    float64
	Children []*StatsNode

	indexHeight int // of the B+tree an index access descends
}

// Walk visits the stats tree in pre-order.
func (sn *StatsNode) Walk(fn func(*StatsNode)) {
	if sn == nil {
		return
	}
	fn(sn)
	for _, c := range sn.Children {
		c.Walk(fn)
	}
}

// CollectStats folds an executable tree into a stats tree. Call it only on a
// quiescent tree — after Run returned or the POP controller harvested a
// violation. cost is the weights the run was charged with; every node's
// Model is evaluated under them.
func CollectStats(root Node, cost optimizer.CostParams) *StatsNode {
	sn := collectNode(root)
	// Every charge site rounds its weight to the meter's tick; so does the
	// model the charges are held against.
	for _, w := range []*float64{&cost.ScanRow, &cost.PredEval, &cost.HashBuildRow, &cost.HashProbeRow,
		&cost.OutputRow, &cost.SortCmpRow, &cost.TempWrite, &cost.TempRead, &cost.IndexLevel, &cost.FetchRow,
		&cost.MergeRow, &cost.CheckRow, &cost.SpillRow} {
		*w = float64(Ticks(*w)) / meterTick
	}
	sn.fillModel(&optimizer.CostModel{Params: cost}, 1)
	return sn
}

func collectNode(n Node) *StatsNode {
	sn := &StatsNode{Plan: n.Plan(), Stats: *n.Stats()}
	if ix, ok := n.(indexed); ok {
		sn.indexHeight = ix.indexHeight()
	}
	for _, c := range n.Children() {
		sn.Children = append(sn.Children, collectNode(c))
	}
	return sn
}

// fillModel sets Model on sn and everything under it: the operator's own cost
// under m — what Recost adds to its inputs' subtree costs — at the
// cardinalities the run observed instead of the estimates. runs is how many
// times the operator's stream was produced: once, except for the inner of a
// nested-loop join, which is rescanned or probed once per outer row. Counters
// sum over the runs; the model's cardinalities are per run.
func (sn *StatsNode) fillModel(m *optimizer.CostModel, runs float64) {
	p, pr := sn.Plan, &m.Params
	kids := sn.Children
	if len(kids) == 1 && kids[0].Plan == p {
		// An ECDC wrapper (INSERT, anti-join) shares its child's plan node and
		// has no term in the model.
		kids[0].fillModel(m, runs)
		return
	}
	residuals := len(expr.Conjuncts(p.Filter))
	switch p.Op {
	case optimizer.OpTableScan, optimizer.OpMVScan:
		sn.Model = runs * p.Cost // no estimated term
	case optimizer.OpIndexScan:
		sn.Model = pr.AccessCost(runs*float64(sn.indexHeight)*pr.IndexLevel, sn.Stats.Fetched, residuals)
	default:
		// Recost reads its input cardinalities from cc and scales the node's
		// estimate by cc[i]/Children[i].Card for its output: a copy whose cards
		// are the observed ones, over inputs that cost nothing, evaluates the
		// node's own terms at what happened.
		at := optimizer.CloneNode(p)
		at.Card = sn.Stats.RowsOut / runs
		cc, cs := make([]float64, len(kids)), make([]float64, len(kids))
		for i, c := range kids {
			crun := runs
			if p.Op == optimizer.OpNLJN && i == 1 {
				crun = kids[0].Stats.RowsOut
				if !p.IndexJoin {
					crun = math.Max(crun, 1) // as Recost counts rescans
				}
			}
			in := *p.Children[i]
			in.Card = c.Stats.RowsOut / math.Max(crun, 1)
			at.Children[i], cc[i] = &in, in.Card
			c.fillModel(m, crun)
		}
		sn.Model = runs * m.Recost(at, cc, cs)
	}
}

// AnalyzeOptions selects optional EXPLAIN ANALYZE columns.
type AnalyzeOptions struct {
	// Wall includes each node's wall-clock span. Off by default: wall time is
	// nondeterministic, and the golden-file tests pin the deterministic
	// columns only.
	Wall bool
}

// FormatStats renders a stats tree in the style of optimizer.Explain, one
// node per line:
//
//	HSJN  est=3200.0 actual=41210 work=94611.0 model=94611.0 [spill]
//
// est is the optimizer's cardinality estimate, actual the rows the operator
// produced, work the simulated work units it charged (analyze mode only),
// model its own modeled cost at the actual cardinalities (StatsNode.Model:
// where it differs from work, the cost model mis-prices the operator,
// whatever the estimates were). The probe edge of an index NLJN is estimated
// per probe and says so; its actual sums over the probes made, fetched is the
// rows the probed key matched before the inner's local predicates:
//
//	IXSCAN(l)[full]  est=0.6/probe actual=2400 probes=4000 fetched=2400 work=41600.0 model=41600.0
//
// Flags: [spill] grace-hash staging, [violated] the CHECK that stopped the
// attempt, [partial] opened but cancelled before end-of-stream, [unopened]
// never ran.
func FormatStats(sn *StatsNode, q *logical.Query, opts AnalyzeOptions) string {
	var b strings.Builder
	formatStatsNode(&b, sn, nil, q, opts, 0)
	return b.String()
}

// formatStatsNode renders sn and its subtree; probeOf is the index NLJN whose
// probe edge sn is, nil for every other node.
func formatStatsNode(b *strings.Builder, sn, probeOf *StatsNode, q *logical.Query, opts AnalyzeOptions, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(optimizer.NodeLabel(sn.Plan, q))
	s := &sn.Stats
	if probeOf != nil {
		fmt.Fprintf(b, "  est=%.1f/probe actual=%.0f probes=%.0f fetched=%.0f", sn.Plan.Card, s.RowsOut,
			probeOf.Children[0].Stats.RowsOut, s.Fetched)
	} else {
		fmt.Fprintf(b, "  est=%.1f actual=%.0f", sn.Plan.Card, s.RowsOut)
	}
	fmt.Fprintf(b, " work=%.1f model=%.1f", s.Work, sn.Model)
	if opts.Wall {
		fmt.Fprintf(b, " wall=%.3fms", float64(s.WallNS())/1e6)
	}
	switch {
	case !s.Opened:
		b.WriteString(" [unopened]")
	case s.Violated:
		b.WriteString(" [violated]")
	case !s.Done:
		b.WriteString(" [partial]")
	}
	if s.Spilled {
		b.WriteString(" [spill]")
	}
	b.WriteByte('\n')
	for i, c := range sn.Children {
		var probed *StatsNode
		if sn.Plan.Op == optimizer.OpNLJN && sn.Plan.IndexJoin && i == 1 {
			probed = sn
		}
		formatStatsNode(b, c, probed, q, opts, depth+1)
	}
}
