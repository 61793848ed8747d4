//go:build !race

package pop

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
