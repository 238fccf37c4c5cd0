//go:build race

package compress

// raceEnabled lets allocation tests skip the pooled top-k scratch: under
// the race detector, sync.Pool drops items at random, so a warm encode
// legitimately re-allocates it.
const raceEnabled = true
