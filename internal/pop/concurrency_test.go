package pop

import (
	"sync"
	"testing"
)

// TestConcurrentStatements runs many POP statements in parallel over one
// shared catalog. Each statement re-optimizes exactly once over its own temp
// MVs, which no other statement sees, and every result must match the
// serial baseline.
func TestConcurrentStatements(t *testing.T) {
	cat := correlatedFixture(t)
	q := correlatedQuery(t, cat)

	baseline, err := NewRunner(cat, Options{Enabled: false}).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := len(baseline.Rows)

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	counts := make([]int, workers)
	reopts := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := NewRunner(cat, DefaultOptions()).Run(q, nil)
			if err != nil {
				errs[w] = err
				return
			}
			counts[w] = len(res.Rows)
			reopts[w] = res.Reopts
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if counts[w] != want {
			t.Errorf("worker %d returned %d rows, want %d", w, counts[w], want)
		}
		if reopts[w] != 1 {
			t.Errorf("worker %d re-optimized %d times, want 1 (no cross-statement MV leakage)", w, reopts[w])
		}
	}
}
