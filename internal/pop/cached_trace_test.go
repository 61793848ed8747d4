package pop

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/types"
)

var updateCachedTrace = flag.Bool("update-cached-trace", false,
	"rewrite testdata/cached_trace.golden from the current cached runner")

// traceTuple renders the part of an event the cached path pins: kind,
// attempt, the optimizer's candidates and cost, and the cache and query_done
// payloads. The statement identity, plan signature and checkpoint count are
// left out — they describe where an event was emitted from, not what the
// cache decided.
func traceTuple(t *testing.T, ev trace.Event) string {
	t.Helper()
	opt := "-"
	if ev.Opt != nil {
		opt = fmt.Sprintf("cand=%d cost=%b", ev.Opt.Candidates, ev.Opt.Cost)
	}
	payload := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	cache, done := "-", "-"
	if ev.Cache != nil {
		cache = payload(ev.Cache)
	}
	if ev.Done != nil {
		done = payload(ev.Done)
	}
	return fmt.Sprintf("%s a=%d opt=%s cache=%s done=%s", ev.Kind, ev.Attempt, opt, cache, done)
}

// TestCachedTraceSequence pins the event stream of the cached path on two
// runs: the correlated fixture executed twice (miss with a CHECK violation,
// invalidation and re-cache, then a hit on the re-cached plan) and one Q10
// quantity sweep (2.5 … 50) through a shared cache, which crosses guard
// rejects, misses and hits. Every verdict, every optimizer invocation's
// enumeration work and cost, and every statement's totals must repeat.
func TestCachedTraceSequence(t *testing.T) {
	var b strings.Builder
	record := func(name string, runs func(opts Options)) {
		col := trace.NewCollector()
		opts := DefaultOptions()
		opts.Trace = col
		runs(opts)
		fmt.Fprintf(&b, "== %s\n", name)
		for _, ev := range col.Events() {
			b.WriteString(traceTuple(t, ev))
			b.WriteByte('\n')
		}
	}

	record("correlated", func(opts Options) {
		cat := cacheFixture(t)
		q := correlatedQuery(t, cat)
		r := cachedRunner(NewCache(), cat, opts)
		for i := 0; i < 2; i++ {
			if _, err := r.Run(q, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	record("q10-sweep", func(opts Options) {
		cat := tpchFixture(t)
		q := q10Param(t, cat)
		r := cachedRunner(NewCache(), cat, opts)
		for qty := 2.5; qty <= 50; qty += 2.5 {
			if _, err := r.Run(q, []types.Datum{types.NewFloat(qty)}); err != nil {
				t.Fatal(err)
			}
		}
	})

	path := filepath.Join("testdata", "cached_trace.golden")
	got := b.String()
	if *updateCachedTrace {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-cached-trace to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("cached trace diverges at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("cached trace length: %d lines, golden %d", len(gl), len(wl))
	}
}
