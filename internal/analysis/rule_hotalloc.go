package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Rule hotalloc: FHDnn's client-side economics rest on the per-round loop
// — kernel calls, HD encoding, aggregation — being allocation-free; the 0-
// alloc benchmarks assert it at a few roots, but any helper those roots
// call can silently regress it. This rule makes the contract structural:
// a function whose doc comment carries
//
//	//fhdnn:hotpath <reason>
//
// must not allocate, and neither may anything reachable from it in the
// module call graph (interface dispatch and method values included, see
// callgraph.go). Flagged allocation forms: make, new, append (may grow
// its backing array), slice/map/pointer composite literals, explicit
// string<->[]byte/[]rune conversions, explicit conversions into
// interface types (boxing), and any call into package fmt (formatting
// allocates for its varargs and result).
//
// Arguments of panic and of invariant.Fail/Failf are exempt: a crash
// path runs at most once and its formatting cost is irrelevant. Function
// literal creation is not flagged — the kernels' parallel dispatchers
// construct closures only on the multi-worker path, behind the serial
// early-return the 0-alloc benchmarks pin; their bodies are still
// scanned. A deliberate, amortized allocation (a lazily grown buffer)
// is excused the usual way with //fhdnn:allow hotalloc <reason>.

// HotpathPrefix marks a function as a zero-allocation root.
const HotpathPrefix = "//fhdnn:hotpath"

// hasHotpathDirective reports whether the declaration's doc comment
// contains a hotpath directive.
func hasHotpathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, HotpathPrefix) {
			return true
		}
	}
	return false
}

// checkHotAlloc runs module-wide: the call graph spans every loaded
// package (pattern packages plus their dependencies) so the closure of a
// root never stops at a package boundary, while roots and findings are
// restricted to the packages actually being linted. Findings are grouped
// by the package containing the allocation so //fhdnn:allow directives in
// that file apply normally.
func checkHotAlloc(l *loader, g *callGraph, patternPkgs []*pkg) map[*pkg][]Diagnostic {
	inPattern := make(map[*pkg]bool, len(patternPkgs))
	for _, p := range patternPkgs {
		inPattern[p] = true
	}

	var roots []*types.Func
	for _, fn := range g.order {
		node := g.nodes[fn]
		if inPattern[node.pkg] && hasHotpathDirective(node.decl) {
			roots = append(roots, fn)
		}
	}
	sortFuncsByPos(roots)
	from := g.reach(roots)

	out := make(map[*pkg][]Diagnostic)
	for _, fn := range g.order {
		root, ok := from[fn]
		if !ok {
			continue
		}
		node := g.nodes[fn]
		if !inPattern[node.pkg] {
			continue
		}
		if ds := hotAllocSites(l, node, root); len(ds) > 0 {
			out[node.pkg] = append(out[node.pkg], ds...)
		}
	}
	return out
}

// hotAllocSites scans one reached function body for allocation sites.
func hotAllocSites(l *loader, node *cgNode, root *types.Func) []Diagnostic {
	info := node.pkg.Info
	via := "declared " + HotpathPrefix
	if node.fn != root {
		via = fmt.Sprintf("reachable from %s %s", HotpathPrefix, funcDisplayName(root))
	}
	self := funcDisplayName(node.fn)
	var diags []Diagnostic
	report := func(n ast.Node, what string) {
		diags = append(diags, diag(l.fset, RuleHotAlloc, n,
			"%s in %s, %s; hot paths must not allocate", what, self, via))
	}
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(info, n, "panic") || isInvariantFail(l, info, n) {
				return false // cold crash path: formatting there is free
			}
			switch {
			case isBuiltin(info, n, "make"):
				report(n, "make")
			case isBuiltin(info, n, "new"):
				report(n, "new")
			case isBuiltin(info, n, "append"):
				report(n, "append (may grow its backing array)")
			case isConversion(info, n):
				if what, bad := allocatingConversion(info, n); bad {
					report(n, what)
				}
			default:
				if fn := calleeOf(info, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
					report(n, "fmt."+fn.Name()+" call")
				}
			}
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice, *types.Map:
				report(n, "composite literal")
			}
		}
		return true
	})
	return diags
}

// isInvariantFail recognizes the module's sanctioned crash helpers.
func isInvariantFail(l *loader, info *types.Info, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() != l.module+"/internal/invariant" {
		return false
	}
	return fn.Name() == "Fail" || fn.Name() == "Failf"
}

// allocatingConversion classifies explicit conversions that allocate.
func allocatingConversion(info *types.Info, call *ast.CallExpr) (string, bool) {
	if len(call.Args) != 1 {
		return "", false
	}
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return "", false
	}
	src := info.TypeOf(call.Args[0])
	if src == nil {
		return "", false
	}
	tu, su := tv.Type.Underlying(), src.Underlying()
	if types.IsInterface(tu) && !types.IsInterface(su) {
		return "conversion to interface (boxes its operand)", true
	}
	if isStringType(su) && isByteOrRuneSlice(tu) {
		return "string-to-slice conversion", true
	}
	if isByteOrRuneSlice(su) && isStringType(tu) {
		return "slice-to-string conversion", true
	}
	return "", false
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	k := basicKind(s.Elem())
	return k == types.Uint8 || k == types.Int32
}
