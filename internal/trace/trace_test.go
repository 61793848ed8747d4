package trace

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
)

// sampleEvents exercises every kind and every payload field, including the
// RangeHi conventions (nil for an unbounded range, pointer otherwise).
func sampleEvents() []Event {
	return []Event{
		{Kind: OptimizeStart, Query: "q1", Attempt: 0},
		{Kind: OptimizeDone, Query: "q1", Attempt: 0,
			Opt: &OptInfo{PlanSig: "00c0ffee00c0ffee", Cost: 1234.5, Candidates: 42, Checks: 3}},
		{Kind: CheckpointPassed, Query: "q1", Attempt: 0,
			Check: &CheckInfo{ID: 1, Flavor: "LC", Where: "above HSJN", Est: 100, Actual: 97,
				Exact: true, RangeLo: 50, RangeHi: Float(200)}},
		{Kind: CheckpointViolated, Query: "q1", Attempt: 0,
			Check: &CheckInfo{ID: 0, Flavor: "LCEM", Est: 320, Actual: 8000, RangeLo: 0.1}}, // RangeHi nil: +Inf
		{Kind: Reoptimize, Query: "q1", Attempt: 0, Reopt: &ReoptInfo{MVsCreated: 2, FeedbackN: 5}},
		{Kind: CacheHit, Query: "k1", Cache: &CacheInfo{Key: "k1", OptWork: 7, OptWorkSaved: 120, Plans: 2}},
		{Kind: CacheMiss, Query: "k1", Cache: &CacheInfo{Key: "k1", OptWork: 127, Plans: 1}},
		{Kind: CacheGuardReject, Query: "k1",
			Cache: &CacheInfo{Key: "k1", GuardSig: "lineitem[l_quantity<=?]", GuardEst: 30000,
				RangeLo: 100, RangeHi: Float(5000)}},
		{Kind: CacheInvalidate, Query: "k1", Cache: &CacheInfo{Key: "k1", Plans: 0}},
		{Kind: OperatorDone, Query: "q1", Attempt: 1,
			Op: &OpInfo{Op: "HSJN", Est: 320, Actual: 8000, Work: 94611.5, Spill: true}},
		{Kind: QueryDone, Query: "q1", Attempt: 1, Done: &DoneInfo{Rows: 160, Work: 123456.5, Reopts: 1}},
	}
}

// TestJSONLRoundTrip encodes one event of every kind and decodes the stream
// back, requiring deep equality — the schema contract DESIGN.md §8 documents.
func TestJSONLRoundTrip(t *testing.T) {
	evs := sampleEvents()
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	for _, ev := range evs {
		j.Record(ev)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if j.Events() != int64(len(evs)) {
		t.Fatalf("Events() = %d, want %d", j.Events(), len(evs))
	}

	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("decoded %d events, want %d", len(got), len(evs))
	}
	for i, ev := range evs {
		ev.Seq = int64(i + 1) // JSONL stamps sequence numbers in emission order
		if !reflect.DeepEqual(got[i], ev) {
			t.Errorf("event %d (%s) did not round-trip:\n got %+v\nwant %+v", i, ev.Kind, got[i], ev)
		}
	}

	// The unbounded validity range must decode back to a nil RangeHi.
	if got[3].Check.RangeHi != nil {
		t.Errorf("unbounded RangeHi decoded to %v, want nil", *got[3].Check.RangeHi)
	}
	if got[2].Check.RangeHi == nil || *got[2].Check.RangeHi != 200 {
		t.Errorf("bounded RangeHi did not survive: %v", got[2].Check.RangeHi)
	}
}

// TestDecodeSkipsBlankLines accepts the hand-edited-trace case.
func TestDecodeSkipsBlankLines(t *testing.T) {
	in := "\n{\"seq\":1,\"kind\":\"query_done\",\"attempt\":0}\n\n"
	evs, err := Decode(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Kind != QueryDone {
		t.Fatalf("got %+v", evs)
	}
}

// TestCollector checks buffering, sequence stamping and the kind filter.
func TestCollector(t *testing.T) {
	c := NewCollector()
	for _, ev := range sampleEvents() {
		c.Record(ev)
	}
	evs := c.Events()
	if len(evs) != len(sampleEvents()) {
		t.Fatalf("collected %d events, want %d", len(evs), len(sampleEvents()))
	}
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if n := len(c.OfKind(CheckpointViolated)); n != 1 {
		t.Errorf("OfKind(CheckpointViolated) = %d, want 1", n)
	}
	// Events returns a snapshot: appending to it must not affect the
	// collector.
	_ = append(evs, Event{Kind: QueryDone})
	if len(c.Events()) != len(sampleEvents()) {
		t.Error("Events() snapshot aliases the collector's buffer")
	}
}

// TestMulti checks nil-skipping composition: nil sinks disappear, a single
// survivor is returned unwrapped, and fan-out reaches every sink.
func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi of no live recorders must be nil")
	}
	c := NewCollector()
	if Multi(nil, c, nil) != Recorder(c) {
		t.Error("Multi of one live recorder must return it unwrapped")
	}
	c2 := NewCollector()
	m := Multi(c, nil, c2)
	m.Record(Event{Kind: QueryDone})
	if len(c.Events()) != 1 || len(c2.Events()) != 1 {
		t.Errorf("fan-out reached %d/%d sinks", len(c.Events()), len(c2.Events()))
	}
}

// TestConcurrentRecord hammers both recorder implementations from many
// goroutines — concurrent server sessions sharing one sink — relying on -race
// in CI.
func TestConcurrentRecord(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	c := NewCollector()
	m := Multi(j, c)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Record(Event{Kind: QueryDone, Attempt: w,
					Done: &DoneInfo{Rows: i, Work: float64(i)}})
			}
		}(w)
	}
	wg.Wait()
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if j.Events() != workers*per {
		t.Fatalf("JSONL recorded %d events, want %d", j.Events(), workers*per)
	}
	evs, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != workers*per {
		t.Fatalf("decoded %d events, want %d", len(evs), workers*per)
	}
	seen := make(map[int64]bool, len(evs))
	for _, ev := range evs {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
	if len(c.Events()) != workers*per {
		t.Fatalf("collector recorded %d events", len(c.Events()))
	}
}
