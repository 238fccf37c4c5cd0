//go:build !race

package compress

// See race_on_test.go.
const raceEnabled = false
