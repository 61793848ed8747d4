package main

import (
	"fmt"
	"io"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names and units; the package's test holds the two together.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run: what a user of the engine
// sees. failed_share is the seventh; it is zero on a healthy run, so it
// travels as the result line's failed ÷ attempted instead of as a metric.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"work_per_query", "work"},
	{"heap_live_mb", "MB"},
}

// perLayer are the metrics of a traced run, grouped by layer.
var perLayer = []metricDef{
	{"server.pre_exec_ms", "ms"},
	{"server.reply_ms", "ms"},
	{"server.engine_ms", "ms"},
	{"server.admit_wait_ms", "ms"},
	{"server.reply_kb_per_query", "kB"},
	{"server.rows_per_reply", "count"},
	{"server.dop_clamps", "count"},
	{"server.inline_runs", "count"},
	{"server.peak_workers", "count"},
	{"server.admission_waits", "count"},
	{"server.backpressure_rejects", "count"},
	{"server.time_share", "ratio"},
	{"optimizer.time_share", "ratio"},
	{"executor.time_share", "ratio"},
	{"sqlparse.parse_us", "us"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.misses", "count"},
	{"plancache.guard_rejects", "count"},
	{"plancache.invalidations", "count"},
	{"plancache.lookup_us", "us"},
	{"optimizer.optimize_ms_per_query", "ms"},
	{"optimizer.invocations_per_query", "count"},
	{"optimizer.candidates_per_query", "count"},
	{"pop.reopts_per_query", "count"},
	{"pop.check_violations", "count"},
	{"pop.checks_passed", "count"},
	{"pop.harvest_ms_per_query", "ms"},
	{"pop.useful_work_share", "ratio"},
	{"executor.exec_ms_per_query", "ms"},
	{"executor.work_units_per_ms", "work/ms"},
	{"executor.work_total", "work"},
	{"executor.workers_started", "count"},
	{"catalog.load_s", "s"},
	{"catalog.rows_loaded", "count"},
	{"process.allocs_per_query", "count"},
	{"process.alloc_kb_per_query", "kB"},
	{"process.gc_pause_ms", "ms"},
	{"process.cpu_s_per_query", "s"},
	{"loadgen.decode_ms", "ms"},
	{"loadgen.failed_share", "ratio"},
	{"trace.overhead_pct", "%"},
}

// unitOf looks a metric's unit up; an unlisted name is a bug in this package.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: metric " + name + " is not in the metric tables")
}

// printRecord prints every metric of a run by name, with unit, workload and
// sample count, in table order.
func printRecord(w io.Writer, rec *record) {
	defs := endToEnd
	if rec.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		if m, ok := rec.Metrics[d.name]; ok {
			fmt.Fprintf(w, "%-14s %-34s %16.6g %-8s n=%d\n", rec.Workload, d.name, m.Value, m.Unit, rec.Samples)
		}
	}
	share := float64(rec.Failed) / float64(max(rec.Attempted, 1))
	fmt.Fprintf(w, "%-14s %-34s %16.6g %-8s failed=%d attempted=%d\n", rec.Workload, "failed_share", share, "ratio", rec.Failed, rec.Attempted)
}
