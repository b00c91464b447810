//go:build race

package autotune

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
