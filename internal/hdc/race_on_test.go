//go:build race

package hdc

// raceEnabled lets allocation-count tests exempt sync.Pool-backed paths:
// under the race detector, Pool.Put intentionally drops items at random
// to shake out lifetime bugs, so pooled scratch legitimately re-allocates.
const raceEnabled = true
