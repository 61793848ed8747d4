package executor

import (
	"strings"
	"testing"

	"repro/internal/optimizer"
)

// TestChargeZeroAllocWhenOff is the zero-overhead guarantee: with analyze and
// tracing off, the work-charge hot path must not allocate.
func TestChargeZeroAllocWhenOff(t *testing.T) {
	if allocs := ChargeAllocsPerRun(1<<16, false); allocs != 0 {
		t.Fatalf("charge allocates %g objects per call with observability off, want 0", allocs)
	}
}

// TestChargeAttribution checks that analyze mode attributes charged work to
// the node and stamps its wall-clock span, and that off mode leaves the
// stats untouched while still metering.
func TestChargeAttribution(t *testing.T) {
	ex := &Executor{Meter: &Meter{}}
	b := &base{}
	b.charge(ex, 2)
	if b.stats.Work != 0 || b.stats.WallFirstNS != 0 {
		t.Fatalf("analyze off must not attribute: %+v", b.stats)
	}
	if ex.Meter.Work() != 2 {
		t.Fatalf("meter = %v, want 2", ex.Meter.Work())
	}

	ex.Analyze = true
	b.charge(ex, 3)
	b.charge(ex, 4)
	if b.stats.Work != 7 {
		t.Fatalf("attributed work = %v, want 7", b.stats.Work)
	}
	if b.stats.WallFirstNS == 0 || b.stats.WallLastNS < b.stats.WallFirstNS {
		t.Fatalf("wall span not stamped: %+v", b.stats)
	}
	if ex.Meter.Work() != 9 {
		t.Fatalf("meter = %v, want 9", ex.Meter.Work())
	}
}

// TestFormatStatsFlags pins the rendered line shape: est/actual/work/model
// columns and the [partial]/[spill]/[unopened] flags, on a spilled hash join
// that stopped early over one scan that ran and one that never opened.
func TestFormatStatsFlags(t *testing.T) {
	scanL := &optimizer.Plan{Op: optimizer.OpTableScan, Card: 1000}
	scanR := &optimizer.Plan{Op: optimizer.OpTableScan, Card: 500}
	join := &optimizer.Plan{Op: optimizer.OpHSJN, Card: 100, Children: []*optimizer.Plan{scanL, scanR}}
	sn := &StatsNode{
		Plan:  join,
		Stats: NodeStats{RowsOut: 100, Work: 18, Opened: true, Spilled: true},
		Model: 18.5,
		Children: []*StatsNode{
			{Plan: scanL, Stats: NodeStats{RowsOut: 1000, Opened: true}},
			{Plan: scanR, Stats: NodeStats{RowsOut: 500, Done: true}},
		},
	}

	out := FormatStats(sn, nil, AnalyzeOptions{})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.HasSuffix(lines[0], "est=100.0 actual=100 work=18.0 model=18.5 [partial] [spill]") ||
		!strings.HasPrefix(lines[0], "HSJN") {
		t.Errorf("join line = %q", lines[0])
	}
	if strings.Contains(lines[0], "wall=") {
		t.Errorf("wall column must be off by default: %q", lines[0])
	}
	if !strings.Contains(lines[2], "[unopened]") {
		t.Errorf("unopened child line = %q", lines[2])
	}
	out = FormatStats(sn, nil, AnalyzeOptions{Wall: true})
	if !strings.Contains(out, "wall=") {
		t.Errorf("Wall option must add the wall column:\n%s", out)
	}
}

// TestFormatStatsProbeEdge pins the inner line of an index NLJN: the estimate
// is per probe and labelled so, actual and fetched sum over the probes, and
// the edge is complete when the join drained its outer.
func TestFormatStatsProbeEdge(t *testing.T) {
	outer := &optimizer.Plan{Op: optimizer.OpTableScan, Card: 4000}
	probe := &optimizer.Plan{Op: optimizer.OpIndexScan, Card: 0.6}
	join := &optimizer.Plan{Op: optimizer.OpNLJN, IndexJoin: true, Card: 2400, Children: []*optimizer.Plan{outer, probe}}
	done := NodeStats{Opened: true, Done: true}
	sn := &StatsNode{Plan: join, Stats: done, Children: []*StatsNode{
		{Plan: outer, Stats: NodeStats{RowsOut: 4000, Opened: true, Done: true}},
		{Plan: probe, Stats: NodeStats{RowsOut: 2357, Fetched: 2399497, Work: 9621988, Opened: true, Done: true}, Model: 9621988},
	}}
	lines := strings.Split(FormatStats(sn, nil, AnalyzeOptions{}), "\n")
	want := "  IXSCAN[full]  est=0.6/probe actual=2357 probes=4000 fetched=2399497 work=9621988.0 model=9621988.0"
	if lines[2] != want {
		t.Errorf("probe line = %q\nwant         %q", lines[2], want)
	}
	if strings.Contains(lines[1], "/probe") || strings.Contains(lines[1], "fetched=") {
		t.Errorf("outer line carries probe columns: %q", lines[1])
	}
}
