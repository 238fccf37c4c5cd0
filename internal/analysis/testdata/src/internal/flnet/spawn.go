// Fixture: goroutine rule — internal/flnet has no exemption; the
// transport runs on net/http's goroutines and starts none of its own.
package flnet

// Notify fires a callback on a goroutine of its own.
func Notify(f func()) {
	go f() // want goroutine "go statement in library code outside the worker pools"
}
