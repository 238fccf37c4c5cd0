// Package analysis is fhdnn-lint: a from-scratch static analyzer, built
// only on the standard library's go/parser, go/ast and go/types, that
// machine-checks the invariants this repo's correctness claims rest on —
// bit-identical parallel kernels, deterministic federated rounds, and a
// lossy-channel-safe wire path. The compiler cannot see any of these;
// until now they lived only in tests (the worker-count bit-equality
// suite, the envelope fuzzer). Each rule below turns one of them into a
// diagnostic with a file:line position.
//
// Rules:
//
//	determinism  no time.Now / global math/rand state, and no map
//	             iteration feeding a float accumulation or append, in
//	             internal/tensor, internal/nn, internal/hdc and
//	             internal/fedcore (the packages whose outputs must be
//	             bit-reproducible for a fixed seed).
//	goroutine    no naked go statements outside the internal/tensor
//	             worker pool; data-parallel fan-out must route through
//	             tensor.ParallelFor, which bounds concurrency and
//	             preserves bit-identical results.
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
//	float64      no float64 intermediates introduced into float32
//	             kernels (internal/tensor): a float64 partial product
//	             changes rounding and silently breaks the bit-equality
//	             contract between serial and parallel execution.
//
// The *Into/*Accum kernels' non-overlap contract is not a rule here: the
// exact runtime guard (internal/tensor, -tags fhdnndebug) checks it at
// every call.
//
// The call-graph rule below runs on a module-wide static call graph
// (callgraph.go):
//
//	hotalloc     functions annotated //fhdnn:hotpath, and everything
//	             reachable from them in the call graph, must not
//	             allocate (make/new/append/boxing conversions/fmt);
//	             panic and invariant.Fail* arguments are exempt.
//
// The wire decoders' hostile-frame contract is not a rule here either:
// the decode surface's fuzz targets check it (make fuzz, on amd64 and
// 386).
//
// A finding is suppressed by a directive comment on the same line or the
// line directly above:
//
//	//fhdnn:allow <rule> <reason>
//
// The reason is mandatory; a directive without one is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"time"
	"unicode"
)

// Version identifies the analyzer generation; v2 added the dataflow
// rules (aliasing, lockheld, hotalloc, ctxflow); v3 the concurrency
// rules (goleak, chandisc, wgproto, atomicmix); v4 the interprocedural
// wire-taint rules (taintalloc, taintindex, taintloop); v5 retired
// goleak, chandisc, wgproto, atomicmix, lockheld and ctxflow; v6 retired
// aliasing and its reaching-definitions layer; v7 retired the wire-taint
// rules and the CFG layer under them (make fuzz covers the decoders).
const Version = "7.0.0"

// Rule names, in exit-code bit order (see cmd/fhdnn-lint).
const (
	RuleDeterminism = "determinism"
	RuleGoroutine   = "goroutine"
	RuleWireError   = "wire-error"
	RulePrintPanic  = "print-panic"
	RuleFloat64     = "float64"
	// RuleAllow reports malformed or unused suppression directives.
	RuleAllow = "allow"
	// Call-graph rule (exit-code bit 128, see cmd/fhdnn-lint).
	RuleHotAlloc = "hotalloc"
)

// AllRules lists every diagnostic rule in canonical order.
var AllRules = []string{
	RuleDeterminism, RuleGoroutine, RuleWireError, RulePrintPanic, RuleFloat64,
	RuleHotAlloc,
}

// Diagnostic is one finding, positioned for editors and CI annotations.
type Diagnostic struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// RuleTiming is the wall time one rule (or shared engine stage) took.
type RuleTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Result is a completed analysis run.
type Result struct {
	// Diags are the active findings, sorted by file, line, column.
	Diags []Diagnostic
	// Suppressed are findings silenced by an //fhdnn:allow directive,
	// retained so tests (and -json consumers) can audit exceptions.
	Suppressed []Diagnostic
	// Packages is the number of packages linted.
	Packages int
	// Timing records per-rule wall time plus the shared stages ("load",
	// "callgraph"), in execution order (see the -timing flag).
	Timing []RuleTiming
}

// moduleGraph builds the call graph hotalloc walks over every loaded
// package, sorted by import path, so a closure never stops at a package
// boundary.
func moduleGraph(l *loader) *callGraph {
	paths := make([]string, 0, len(l.pkgs))
	for path := range l.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	all := make([]*pkg, 0, len(paths))
	for _, path := range paths {
		all = append(all, l.pkgs[path])
	}
	return buildCallGraph(all)
}

// Run lints the module rooted at root. Patterns are package directory
// patterns relative to root ("./...", "./internal/flnet"); rules
// restricts the rule set (nil means all).
func Run(root string, patterns []string, rules []string) (*Result, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	enabled := make(map[string]bool)
	if len(rules) == 0 {
		rules = AllRules
	}
	for _, r := range rules {
		enabled[r] = true
	}

	res := &Result{}
	timed := func(name string, fn func()) {
		t0 := time.Now()
		fn()
		res.Timing = append(res.Timing, RuleTiming{Name: name, Seconds: time.Since(t0).Seconds()})
	}

	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	paths, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}

	// Load everything first: the per-package rules only need their own
	// package, but the module-wide rules walk the call graph and need the
	// whole pattern set (plus its dependencies) type-checked.
	loaded := make([]*pkg, 0, len(paths))
	var loadErr error
	timed("load", func() {
		for _, path := range paths {
			p, err := l.load(path)
			if err != nil {
				loadErr = err
				return
			}
			loaded = append(loaded, p)
		}
	})
	if loadErr != nil {
		return nil, loadErr
	}

	// Rule-major iteration so -timing attributes wall time per rule; the
	// final output order is fixed by sortDiags, and suppression matching
	// is keyed by (file, line, rule), so the collection order is free.
	found := make(map[*pkg][]Diagnostic, len(loaded))
	for _, rule := range ruleFuncs {
		if !enabled[rule.name] {
			continue
		}
		rule := rule
		timed(rule.name, func() {
			for _, p := range loaded {
				found[p] = append(found[p], rule.run(l, p)...)
			}
		})
	}

	// hotalloc is module-wide: it walks the call graph, whose build is
	// the dominant fixed cost and gets its own -timing row.
	if enabled[RuleHotAlloc] {
		var g *callGraph
		timed("callgraph", func() { g = moduleGraph(l) })
		timed(RuleHotAlloc, func() {
			for p, ds := range checkHotAlloc(l, g, loaded) {
				found[p] = append(found[p], ds...)
			}
		})
	}

	res.Packages = len(loaded)
	for _, p := range loaded {
		active, suppressed, bad := applySuppressions(l.fset, p, found[p], enabled)
		res.Diags = append(res.Diags, active...)
		res.Diags = append(res.Diags, bad...)
		res.Suppressed = append(res.Suppressed, suppressed...)
	}
	sortDiags(res.Diags)
	sortDiags(res.Suppressed)
	return res, nil
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].File != ds[j].File {
			return ds[i].File < ds[j].File
		}
		if ds[i].Line != ds[j].Line {
			return ds[i].Line < ds[j].Line
		}
		if ds[i].Col != ds[j].Col {
			return ds[i].Col < ds[j].Col
		}
		if ds[i].Rule != ds[j].Rule {
			return ds[i].Rule < ds[j].Rule
		}
		return ds[i].Message < ds[j].Message
	})
}

// namedRule pairs a rule id with its implementation.
type namedRule struct {
	name string
	run  func(l *loader, p *pkg) []Diagnostic
}

var ruleFuncs = []namedRule{
	{RuleDeterminism, checkDeterminism},
	{RuleGoroutine, checkGoroutines},
	{RuleWireError, checkWireErrors},
	{RulePrintPanic, checkPrintPanic},
	{RuleFloat64, checkFloat64},
	// hotalloc is module-wide (call-graph closures) and runs separately
	// in Run, not per package.
}

// AllowPrefix starts a suppression directive comment.
const AllowPrefix = "//fhdnn:allow"

// allowDirective is one parsed //fhdnn:allow comment.
type allowDirective struct {
	rule   string
	reason string
	line   int
	pos    token.Position
	used   bool
}

// parseAllows collects the suppression directives of one file.
func parseAllows(fset *token.FileSet, f *ast.File) []*allowDirective {
	var out []*allowDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, AllowPrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, AllowPrefix))
			// The rule name ends at the first whitespace of any kind; a
			// tab-separated directive must not smuggle the tab into the
			// rule name (found by FuzzParseAllows).
			rule, reason := rest, ""
			if i := strings.IndexFunc(rest, unicode.IsSpace); i >= 0 {
				rule, reason = rest[:i], rest[i:]
			}
			// A "//" inside the reason starts a separate trailing comment
			// (the fixture corpus uses this for expectation markers).
			if i := strings.Index(reason, "//"); i >= 0 {
				reason = reason[:i]
			}
			pos := fset.Position(c.Pos())
			out = append(out, &allowDirective{
				rule:   rule,
				reason: strings.TrimSpace(reason),
				line:   pos.Line,
				pos:    pos,
			})
		}
	}
	return out
}

// applySuppressions splits findings into active and suppressed ones. A
// directive covers findings of its rule on its own line and the line
// directly below (so it can trail the offending statement or sit on its
// own line above it). Malformed directives — unknown rule or missing
// reason — become findings themselves, as do directives that suppress
// nothing: a stale exception must not outlive the code it excused.
func applySuppressions(fset *token.FileSet, p *pkg, found []Diagnostic, enabled map[string]bool) (active, suppressed, bad []Diagnostic) {
	var directives []*allowDirective
	for _, f := range p.Files {
		directives = append(directives, parseAllows(fset, f)...)
	}
	known := make(map[string]bool)
	for _, r := range AllRules {
		known[r] = true
	}
	byFileLineRule := make(map[string]*allowDirective)
	key := func(file string, line int, rule string) string {
		return fmt.Sprintf("%s:%d:%s", file, line, rule)
	}
	for _, d := range directives {
		if !known[d.rule] || d.reason == "" {
			bad = append(bad, Diagnostic{
				Rule: RuleAllow, File: d.pos.Filename, Line: d.line, Col: d.pos.Column,
				Message: fmt.Sprintf("malformed directive: want %s <rule> <reason> with rule in %v", AllowPrefix, AllRules),
			})
			continue
		}
		byFileLineRule[key(d.pos.Filename, d.line, d.rule)] = d
		byFileLineRule[key(d.pos.Filename, d.line+1, d.rule)] = d
	}
	for _, diag := range found {
		if d, ok := byFileLineRule[key(diag.File, diag.Line, diag.Rule)]; ok {
			d.used = true
			suppressed = append(suppressed, diag)
			continue
		}
		active = append(active, diag)
	}
	for _, d := range directives {
		// Only audit directives of rules that actually ran this pass; a
		// -rules subset must not report every other directive as stale.
		if d.used || !known[d.rule] || d.reason == "" || !enabled[d.rule] {
			continue
		}
		bad = append(bad, Diagnostic{
			Rule: RuleAllow, File: d.pos.Filename, Line: d.line, Col: d.pos.Column,
			Message: fmt.Sprintf("directive suppresses no %s finding; remove it", d.rule),
		})
	}
	return active, suppressed, bad
}

// diag builds a Diagnostic at a node's position.
func diag(fset *token.FileSet, rule string, n ast.Node, format string, args ...any) Diagnostic {
	pos := fset.Position(n.Pos())
	return Diagnostic{
		Rule: rule, File: pos.Filename, Line: pos.Line, Col: pos.Column,
		Message: fmt.Sprintf(format, args...),
	}
}
