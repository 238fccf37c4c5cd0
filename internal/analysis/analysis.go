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
// The wire-taint rules run on the interprocedural taint engine
// (taint.go), over an intraprocedural CFG with dominators (cfg.go) and
// the same call graph: wire sources are []byte / io.Reader parameters of
// the exported decode surface in compress/fedcore/flnet/hdc and the
// http.Request/Response reads in flnet; summaries propagate taint
// across the call graph; a dominating comparison against a trusted cap
// sanitizes:
//
//	taintalloc   a wire-tainted integer sizes a make / append-growth /
//	             bytes.Repeat with no dominating bound check — a 24-byte
//	             frame must not be able to claim a 2^26-element body.
//	taintindex   a wire-tainted integer indexes or slices a buffer with
//	             no dominating bounds check (out-of-range panics on
//	             hostile frames).
//	taintloop    a loop condition is bounded by a wire-tainted value
//	             with no dominating cap (attacker-controlled iteration
//	             counts).
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
// aliasing and its reaching-definitions layer.
const Version = "6.0.0"

// Rule names, in exit-code bit order (see cmd/fhdnn-lint).
const (
	RuleDeterminism = "determinism"
	RuleGoroutine   = "goroutine"
	RuleWireError   = "wire-error"
	RulePrintPanic  = "print-panic"
	RuleFloat64     = "float64"
	// RuleAllow reports malformed or unused suppression directives.
	RuleAllow = "allow"
	// Call-graph rule (shares one exit-code bit with the taint rules, see
	// cmd/fhdnn-lint).
	RuleHotAlloc = "hotalloc"
	// Wire-taint rules (interprocedural, taint.go).
	RuleTaintAlloc = "taintalloc"
	RuleTaintIndex = "taintindex"
	RuleTaintLoop  = "taintloop"
)

// AllRules lists every diagnostic rule in canonical order.
var AllRules = []string{
	RuleDeterminism, RuleGoroutine, RuleWireError, RulePrintPanic, RuleFloat64,
	RuleHotAlloc,
	RuleTaintAlloc, RuleTaintIndex, RuleTaintLoop,
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

// modulePass carries the module-wide call graph shared by the
// call-graph rules (hotalloc and the taint engine). Built once per Run —
// the graph spans every loaded package so closures never stop at a
// package boundary, and building it per rule would double the dominant
// cost of a whole-repo lint.
type modulePass struct {
	l     *loader
	all   []*pkg // every loaded package, sorted by import path
	graph *callGraph
}

func newModulePass(l *loader) *modulePass {
	paths := make([]string, 0, len(l.pkgs))
	for path := range l.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	all := make([]*pkg, 0, len(paths))
	for _, path := range paths {
		all = append(all, l.pkgs[path])
	}
	return &modulePass{l: l, all: all, graph: buildCallGraph(all)}
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

	// Module-wide rules share one call graph: the build is the dominant
	// fixed cost and doubling it would strain the whole-repo latency
	// budget (see the -timing flag).
	needTaint := enabled[RuleTaintAlloc] || enabled[RuleTaintIndex] || enabled[RuleTaintLoop]
	var mp *modulePass
	if enabled[RuleHotAlloc] || needTaint {
		timed("callgraph", func() { mp = newModulePass(l) })
	}
	moduleRule := func(name string, run func() map[*pkg][]Diagnostic) {
		if !enabled[name] {
			return
		}
		timed(name, func() {
			for p, ds := range run() {
				found[p] = append(found[p], ds...)
			}
		})
	}
	moduleRule(RuleHotAlloc, func() map[*pkg][]Diagnostic { return checkHotAlloc(mp, loaded) })

	// The taint engine runs once (summaries + fixpoint + findings) as its
	// own timed stage; the three rule rows then just slice its output, so
	// -timing attributes the interprocedural cost honestly.
	var te *taintEngine
	if needTaint {
		timed("taint", func() { te = buildTaint(mp, loaded) })
	}
	moduleRule(RuleTaintAlloc, func() map[*pkg][]Diagnostic { return te.findings(RuleTaintAlloc, loaded) })
	moduleRule(RuleTaintIndex, func() map[*pkg][]Diagnostic { return te.findings(RuleTaintIndex, loaded) })
	moduleRule(RuleTaintLoop, func() map[*pkg][]Diagnostic { return te.findings(RuleTaintLoop, loaded) })

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
	// hotalloc and the taint rules are module-wide (call-graph closures)
	// and run separately in Run, not per package.
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
