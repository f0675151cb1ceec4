//go:build race

package instio

// raceEnabled reports whether the race detector is compiled in; the
// allocation-pinning test skips under it because sync.Pool then drops
// a random share of Puts, so Decode's recycled decoder is sometimes
// rebuilt.
const raceEnabled = true
