package analysis

import (
	"go/ast"
	"path/filepath"
	"slices"
	"strings"
)

// goroutine: an unbounded `go` statement in library code is how a
// refactor quietly replaces the deterministic, bounded worker pool with a
// thundering herd. The rule covers library code under internal/, the
// scope print-panic has too: a binary owns its process, and its serve
// loops and actors are its own business.
//
// Two places are entitled to spawn: internal/tensor, which owns the
// shared semaphore pool behind ParallelFor (bounded, nest-safe,
// bit-identical for every worker count), and the fedcore round engine's
// file, whose fixed pool gives each worker a stable id for its model
// replica and joins before the round aggregates. internal/flnet gets no
// exemption: it runs on net/http's goroutines and starts none of its own
// (TestServerStartsNoGoroutines pins this). Everything else routes
// data-parallel fan-out through tensor.ParallelFor.
var goroutineSpawners = []string{"internal/tensor", "internal/fedcore/engine.go"}

func checkGoroutines(l *loader, p *pkg) []Diagnostic {
	if !strings.HasPrefix(p.Rel, "internal/") || slices.Contains(goroutineSpawners, p.Rel) {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		file := p.Rel + "/" + filepath.Base(l.fset.File(f.Pos()).Name())
		if slices.Contains(goroutineSpawners, file) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				out = append(out, diag(l.fset, RuleGoroutine, g,
					"go statement in library code outside the worker pools; route fan-out through tensor.ParallelFor"))
			}
			return true
		})
	}
	return out
}
