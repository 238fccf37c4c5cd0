//go:build !race

package fl

// See race_on_test.go.
const raceEnabled = false
