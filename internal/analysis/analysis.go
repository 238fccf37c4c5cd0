// Package analysis is fhdnn-lint: a from-scratch static analyzer, built
// only on the standard library's go/parser, go/ast and go/types, that
// machine-checks the invariants no test run can see: deterministic
// federated rounds, one bounded worker pool, and a wire path that drops
// no error and never writes to stdout or panics on hostile input. Each
// rule below turns one of them into a diagnostic with a file:line
// position.
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
//
// Three contracts are checked at run time instead, by the tests that
// would fail on a violation (DESIGN.md Sec. 9 tables each hazard and the
// test that catches it): the *Into/*Accum kernels' non-overlap contract
// (the exact guard under -tags fhdnndebug), the wire decoders'
// hostile-frame contract (the decode surface's fuzz targets, make fuzz),
// and the allocation-free per-sample and per-update loops and float32
// kernel chains (the AllocsPerRun pins and the kernel bit-equality
// tests, on amd64 and 386).
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
	"unicode"
)

// Version identifies the analyzer generation; v2 added the dataflow
// rules (aliasing, lockheld, hotalloc, ctxflow); v3 the concurrency
// rules (goleak, chandisc, wgproto, atomicmix); v4 the interprocedural
// wire-taint rules (taintalloc, taintindex, taintloop); v5 retired
// goleak, chandisc, wgproto, atomicmix, lockheld and ctxflow; v6 retired
// aliasing and its reaching-definitions layer; v7 retired the wire-taint
// rules and the CFG layer under them (make fuzz covers the decoders); v8
// retired hotalloc, its module call graph and float64 (the allocation
// pins and the kernel bit-equality tests catch what they guarded).
const Version = "8.0.0"

// Rule names, in exit-code bit order (see cmd/fhdnn-lint).
const (
	RuleDeterminism = "determinism"
	RuleGoroutine   = "goroutine"
	RuleWireError   = "wire-error"
	RulePrintPanic  = "print-panic"
	// RuleAllow reports malformed or unused suppression directives.
	RuleAllow = "allow"
)

// AllRules lists every diagnostic rule in canonical order.
var AllRules = []string{RuleDeterminism, RuleGoroutine, RuleWireError, RulePrintPanic}

// retiredRules are rules that no longer run but whose directives the
// audit still accepts as well formed and never reports as stale, the way
// a -rules subset treats the rules it skips. It exists for the one
// hotalloc directive left in bench/train.go, which only a change to the
// benchmark may remove; ROADMAP item 4(a) deletes this set together with
// that line. Every other retired rule's directive is malformed.
var retiredRules = map[string]bool{"hotalloc": true}

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

// Result is a completed analysis run.
type Result struct {
	// Diags are the active findings, sorted by file, line, column.
	Diags []Diagnostic
	// Suppressed are findings silenced by an //fhdnn:allow directive,
	// retained so tests (and -json consumers) can audit exceptions.
	Suppressed []Diagnostic
	// Packages is the number of packages linted.
	Packages int
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
		var found []Diagnostic
		for _, rule := range ruleFuncs {
			if enabled[rule.name] {
				found = append(found, rule.run(l, p)...)
			}
		}
		active, suppressed, bad := applySuppressions(l.fset, p, found, enabled)
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
// nothing: a stale exception must not outlive the code it excused. A
// directive naming a retired rule with a reason is neither.
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
		if retiredRules[d.rule] && d.reason != "" {
			continue
		}
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
