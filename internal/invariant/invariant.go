// Package invariant is the repo's single allowlisted panic helper.
//
// The wire packages (internal/compress, internal/fedcore, internal/flnet,
// internal/link) must never panic on data that arrived over the network —
// malformed input surfaces as typed errors that the quarantine path can
// refuse. The print-panic rule of internal/analysis enforces that (its
// TestModuleIsClean sweeps the module in go test ./...); the one
// legitimate crash left is a broken *programmer* invariant (impossible
// dimensions, a constructor misused), and those route through Failf so
// that every intentional crash site in a wire package is greppable and
// visibly distinct from a forgotten error path.
package invariant

import "fmt"

// Failf reports a violated programmer invariant and never returns. The
// message should carry the package prefix ("fedcore: ...") like every
// other error in the repo.
func Failf(format string, args ...any) {
	panic(fmt.Sprintf(format, args...))
}

// Fail is Failf for a fixed message.
func Fail(msg string) {
	panic(msg)
}
