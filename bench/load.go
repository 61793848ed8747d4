package main

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// sample is one completed request of a pass: which slot of the sequence it
// was, which session ran it, which kind it ran and what came back.
type sample struct {
	slot, session, kind int
	reply
}

// pass is the outcome of one closed-loop pass over the sessions.
type pass struct {
	samples []sample // in slot order
	start   time.Time
	wall    time.Duration
}

// sequence deals the request sequence: whole cycles of the deck, each cycle
// shuffled afresh from the seed's stream. Every cycle holds the same multiset
// of requests, so passes of any length stay comparable; reshuffling each
// cycle varies which requests run side by side within one run instead of
// only between seeds.
type sequence struct {
	deck  []int
	rng   *rand.Rand
	cycle []int
	dealt int
}

// newSequence starts a seeded sequence over the deck.
func newSequence(deck []int, seed int64) *sequence {
	return &sequence{deck: deck, rng: rand.New(rand.NewSource(seed))}
}

// inOrder is the unshuffled sequence: the deck as written, repeated.
func inOrder(deck []int) *sequence { return &sequence{deck: deck} }

// atBoundary reports whether a whole number of cycles has been dealt.
func (q *sequence) atBoundary() bool { return q.dealt%len(q.deck) == 0 }

// next deals the next slot's kind.
func (q *sequence) next() int {
	i := q.dealt % len(q.deck)
	if i == 0 {
		q.cycle = slices.Clone(q.deck)
		if q.rng != nil {
			q.rng.Shuffle(len(q.cycle), func(a, b int) { q.cycle[a], q.cycle[b] = q.cycle[b], q.cycle[a] })
		}
	}
	q.dealt++
	return q.cycle[i]
}

// runPass drives the sessions closed-loop from one shared request sequence:
// a session takes the next slot when its reply arrives. With maxSlots > 0
// the pass ends after exactly that many slots; otherwise it ends at the
// first cycle boundary at or after minDur, having run at least one cycle —
// so a timed pass executes whole cycles and every run of a seed executes
// the same requests per cycle, however long they take.
func runPass(kinds []kind, sessions []session, seq *sequence, minDur time.Duration, maxSlots int, keepRows bool) pass {
	var (
		mu      sync.Mutex
		slots   int
		stopped bool
	)
	start := time.Now()
	draw := func() (slot, k int, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if !stopped {
			if maxSlots > 0 {
				stopped = slots >= maxSlots
			} else {
				stopped = slots > 0 && seq.atBoundary() && time.Since(start) >= minDur
			}
		}
		if stopped {
			return 0, 0, false
		}
		slots++
		return slots - 1, seq.next(), true
	}

	perSession := make([][]sample, len(sessions))
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s session) {
			defer wg.Done()
			for {
				slot, k, ok := draw()
				if !ok {
					return
				}
				perSession[i] = append(perSession[i], sample{slot: slot, session: i, kind: k, reply: s.do(&kinds[k], keepRows)})
			}
		}(i, s)
	}
	wg.Wait()
	p := pass{start: start, wall: time.Since(start)}
	for _, ss := range perSession {
		p.samples = append(p.samples, ss...)
	}
	sort.Slice(p.samples, func(a, b int) bool { return p.samples[a].slot < p.samples[b].slot })
	return p
}

// counters is a snapshot of everything the benchmark reads as a delta over a
// pass: Go runtime, process CPU, scheduler and engine counters.
type counters struct {
	mallocs, allocBytes, gcPauseNS uint64
	cpu                            time.Duration
	sched                          server.SchedStats
	hits, misses, rejects, invals  int64
}

// snapshot reads the counters. srv is nil on the library path.
func snapshot(srv *server.Server) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcPauseNS: ms.PauseTotalNs}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if srv != nil {
		c.sched = srv.Scheduler().Stats()
		m := srv.Metrics()
		c.hits, c.misses, c.rejects, c.invals = m.CacheHits, m.CacheMisses, m.CacheGuardRejects, m.CacheInvalidates
	}
	return c
}

// heapLiveMB forces a collection and reports what is still reachable. It
// collects twice: a sync.Pool's contents (encoding/json keeps encoder state
// in one) survive the first collection in the pool's victim cache, and
// whether they count would depend on when the last background cycle ran.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// percentile is the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// median is the middle of the values (mean of the middle two when even).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
