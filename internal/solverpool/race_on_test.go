//go:build race

package solverpool_test

// raceEnabled reports whether the race detector is compiled in; the
// zero-allocation assertion is skipped under it (instrumentation
// allocates).
const raceEnabled = true
