package stats

import (
	"sort"
	"sync"
)

// Feedback is the cardinality-feedback cache. During a POP re-optimization
// the runtime records the actual cardinality observed for each plan edge,
// keyed by the edge's signature (the set of joined tables plus the canonical
// text of the applied predicates). On recompilation the estimator consults
// the cache before falling back to statistics, so the mistake that triggered
// re-optimization is not repeated (paper §2, aspect 2).
type Feedback struct {
	mu sync.RWMutex
	m  map[string]float64
}

// NewFeedback returns an empty feedback cache.
func NewFeedback() *Feedback {
	return &Feedback{m: make(map[string]float64)}
}

// Record stores the actual cardinality for a plan-edge signature,
// overwriting any previous observation.
func (f *Feedback) Record(signature string, actualCard float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.m[signature] = actualCard
}

// Get returns the recorded actual cardinality for the signature.
func (f *Feedback) Get(signature string) (float64, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	v, ok := f.m[signature]
	return v, ok
}

// Len returns the number of recorded observations.
func (f *Feedback) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.m)
}

// Clear drops all observations (end of statement).
func (f *Feedback) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.m = make(map[string]float64)
}

// Signatures returns the recorded signatures in sorted order. The optimizer's
// estimator reads it once per compile with a non-empty cache, to find the
// multi-table observations whose ratio to the estimate scales the supersets
// of their table sets; tests and diagnostics read it too.
func (f *Feedback) Signatures() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.m))
	for k := range f.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
