//go:build race

package flnet

// raceEnabled lets allocation tests skip the pooled upload buffers: under
// the race detector, sync.Pool drops items at random, so a steady-state
// upload legitimately re-allocates them.
const raceEnabled = true
