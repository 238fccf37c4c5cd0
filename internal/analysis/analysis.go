// Package analysis is the repo's static analyzer: a from-scratch checker,
// built only on the standard library's go/parser, go/ast and go/types,
// for the invariants no test run can see: one bounded worker pool, and a
// wire path that drops no error and never writes to stdout or panics on
// hostile input. Each rule below turns one of them into a diagnostic
// with a file:line position. TestModuleIsClean sweeps the module and
// fails on every finding, so `go test ./...` runs the rules.
//
// Rules:
//
//	goroutine    no go statements in library code under internal/,
//	             outside the two sanctioned worker pools: internal/tensor
//	             (ParallelFor) and internal/fedcore/engine.go (the round
//	             engine). Data-parallel fan-out routes through
//	             tensor.ParallelFor, which bounds concurrency and keeps
//	             results bit-identical. Binaries own their process and
//	             may start what they like.
//	wire-error   every dropped error on the serialization/HTTP path:
//	             all error returns inside internal/compress,
//	             internal/fedcore, internal/flnet and internal/link, and
//	             calls into net/http, encoding/json, encoding/binary,
//	             io, os or the wire packages from anywhere else.
//	print-panic  library packages (internal/...) must not write to the
//	             process's stdout/stderr via fmt.Print*/println or the
//	             log package, and the wire packages must not panic —
//	             malformed network input must surface as typed errors
//	             (programmer-error checks go through invariant.Failf).
//
// A rule's exceptions are its scope; there is no suppression comment.
//
// The other contracts are checked at run time, by the tests that would
// fail on a violation (DESIGN.md Sec. 9 tables each hazard and the test
// that catches it): deterministic federated rounds (the engine's
// add-order and cross-worker test, the fl goldens), the *Into/*Accum
// kernels' non-overlap contract (the exact guard under -tags
// fhdnndebug), the wire decoders' hostile-frame contract (make fuzz),
// and the allocation-free per-sample and per-update loops and float32
// kernel chains (the AllocsPerRun pins and the kernel bit-equality
// tests, on amd64 and 386).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Rule names.
const (
	RuleGoroutine  = "goroutine"
	RuleWireError  = "wire-error"
	RulePrintPanic = "print-panic"
)

// Diagnostic is one finding, positioned for editors.
type Diagnostic struct {
	Rule    string
	File    string
	Line    int
	Col     int
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Result is a completed analysis run.
type Result struct {
	// Diags are the findings, sorted by file, line, column.
	Diags []Diagnostic
	// Packages is the number of packages linted.
	Packages int
}

// Run lints the module rooted at root with every rule. Patterns are
// package directory patterns relative to root ("./...",
// "./internal/flnet"); none means "./...".
func Run(root string, patterns ...string) (*Result, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	paths, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}

	res := &Result{Packages: len(paths)}
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		for _, rule := range rules {
			res.Diags = append(res.Diags, rule(l, p)...)
		}
	}
	sort.Slice(res.Diags, func(i, j int) bool {
		a, b := res.Diags[i], res.Diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return res, nil
}

var rules = []func(l *loader, p *pkg) []Diagnostic{checkGoroutines, checkWireErrors, checkPrintPanic}

// diag builds a Diagnostic at a node's position.
func diag(fset *token.FileSet, rule string, n ast.Node, format string, args ...any) Diagnostic {
	pos := fset.Position(n.Pos())
	return Diagnostic{
		Rule: rule, File: pos.Filename, Line: pos.Line, Col: pos.Column,
		Message: fmt.Sprintf(format, args...),
	}
}
