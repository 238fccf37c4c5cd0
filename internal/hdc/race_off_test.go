//go:build !race

package hdc

// See race_on_test.go.
const raceEnabled = false
