//go:build race

package pop

// raceEnabled reports a -race build. Its sync.Pool drops a share of Puts at
// random, so the hash joins' pooled build memory is made anew more often and
// a byte budget must allow for it.
const raceEnabled = true
