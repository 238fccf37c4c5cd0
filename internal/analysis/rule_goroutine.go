package analysis

import "go/ast"

// goroutine: unbounded `go` statements are how a refactor quietly
// replaces the deterministic, bounded worker pool with a thundering herd.
// Only internal/tensor, which owns the shared semaphore pool behind
// ParallelFor (bounded, nest-safe, bit-identical for every worker count),
// is entitled to spawn goroutines. internal/flnet gets no exemption: it
// runs on net/http's goroutines and starts none of its own
// (TestServerStartsNoGoroutines pins this).
//
// Everything else either routes data-parallel fan-out through
// tensor.ParallelFor or carries an //fhdnn:allow goroutine annotation
// explaining why bounded fan-out does not fit (e.g. an HTTP server's
// accept loop).
var goroutinePkgs = []string{"internal/tensor"}

func checkGoroutines(l *loader, p *pkg) []Diagnostic {
	if relIn(p, goroutinePkgs...) {
		return nil
	}
	var out []Diagnostic
	inspectAll(p, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			out = append(out, diag(l.fset, RuleGoroutine, g,
				"naked go statement outside the worker pool; route fan-out through tensor.ParallelFor"))
		}
		return true
	})
	return out
}
