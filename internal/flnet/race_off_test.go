//go:build !race

package flnet

// See race_on_test.go.
const raceEnabled = false
