//go:build race

package fl

// raceEnabled lets allocation tests skip under the race detector: its
// sync.Pool drops Puts at random, so the pooled similarity-kernel scratch
// of package hdc re-allocates on every call.
const raceEnabled = true
