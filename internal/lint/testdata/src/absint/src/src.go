// Package absintfix exercises the abstract-interpretation value layer for
// the white-box tests: if/else joins, loop widening, select-clause edges,
// branch-sensitive refinement and the MaxInt64/b guard idiom. Each function
// isolates one behavior the tests assert on through the computed summaries
// and replay sites.
package absintfix

import "math"

// joinRange merges two branch constants: the summary interval is [2, 3].
func joinRange(b bool) int {
	x := 0
	if b {
		x = 2
	} else {
		x = 3
	}
	return x
}

// widen counts to n: the loop head widens the counter, so the analysis
// converges with s in [0, +inf] instead of iterating per value.
func widen(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s++
	}
	return s
}

// selectJoin merges per-clause constants through select-clause edges.
func selectJoin(a, b chan int) int {
	x := 5
	select {
	case <-a:
		x = 5
	case <-b:
		x = 7
	}
	return x
}

// clamp pins branch-sensitive refinement on both edge polarities: the
// summary interval is exactly [0, 100].
func clamp(n int) int {
	if n < 0 {
		return 0
	}
	if n > 100 {
		return 100
	}
	return n
}

// guarded multiplies under the MaxInt64/b guard idiom: the site's guard
// flag must be set on the true edge.
func guarded(a, b int64) int64 {
	if b > 0 && a <= math.MaxInt64/b {
		return a * b
	}
	return 0
}

// unguarded is the same product without the guard.
func unguarded(a, b int64) int64 {
	return a * b
}
