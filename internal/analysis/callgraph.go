package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// callgraph.go builds a module-wide static call graph over the loaded,
// type-checked packages. The graph is a deliberate over-approximation —
// the hotalloc rule walks the closure of //fhdnn:hotpath roots, and a
// missed edge there means a missed allocation:
//
//   - Every function *reference* is an edge, not just call expressions:
//     taking a method value (h := b.Add) or passing a function as an
//     argument may run it later, so the referenced function joins the
//     caller's closure.
//   - A reference to an interface method fans out to the corresponding
//     concrete method of every module type that implements the
//     interface, for both value and pointer receivers.
//   - References inside function literals are attributed to the
//     enclosing declared function; the literal runs as part of it.
//
// Construction is deterministic: packages are visited in sorted import
// order, declarations and references in source order, and interface
// implementers in sorted type order. Nothing iterates a Go map whose
// order could leak into output.

// cgNode is one declared function or method with a body.
type cgNode struct {
	fn      *types.Func
	decl    *ast.FuncDecl
	pkg     *pkg
	callees []*types.Func // deduplicated, source order then dispatch order
}

// callGraph is the module call graph.
type callGraph struct {
	nodes map[*types.Func]*cgNode
	order []*types.Func // deterministic node order
}

// buildCallGraph constructs the graph over the given packages (callers
// are drawn from these; callees may resolve anywhere in the module).
func buildCallGraph(pkgs []*pkg) *callGraph {
	g := &callGraph{nodes: make(map[*types.Func]*cgNode)}

	// Module named types, for interface-dispatch expansion.
	var concrete []*types.Named
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			concrete = append(concrete, named)
		}
	}

	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &cgNode{fn: fn, decl: fd, pkg: p}
				g.nodes[fn] = node
				g.order = append(g.order, fn)
				collectCallees(node, p.Info, concrete)
			}
		}
	}
	return g
}

// collectCallees walks the function body in source order recording every
// referenced function, expanding interface methods to their module
// implementations.
func collectCallees(node *cgNode, info *types.Info, concrete []*types.Named) {
	seen := make(map[*types.Func]bool)
	add := func(fn *types.Func) {
		if fn != nil && !seen[fn] {
			seen[fn] = true
			node.callees = append(node.callees, fn)
		}
	}
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		add(fn)
		if isInterfaceMethod(fn) {
			for _, impl := range implementersOf(fn, concrete) {
				add(impl)
			}
		}
		return true
	})
}

// isInterfaceMethod reports whether fn is declared on an interface type.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// implementersOf resolves an interface method to the concrete methods of
// the module types that satisfy the interface (via value or pointer
// receiver).
func implementersOf(fn *types.Func, concrete []*types.Named) []*types.Func {
	sig := fn.Type().(*types.Signature)
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, named := range concrete {
		var recv types.Type
		if types.Implements(named, iface) {
			recv = named
		} else if ptr := types.NewPointer(named); types.Implements(ptr, iface) {
			recv = ptr
		} else {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, fn.Pkg(), fn.Name())
		if m, ok := obj.(*types.Func); ok {
			out = append(out, m)
		}
	}
	return out
}

// reach computes the closure of roots over the graph, returning for every
// reached function the first root (in root order) that reaches it.
// Plain BFS with a visited set: cycles (recursion, mutual recursion)
// terminate because each node is expanded once.
func (g *callGraph) reach(roots []*types.Func) map[*types.Func]*types.Func {
	from := make(map[*types.Func]*types.Func, len(roots))
	var queue []*types.Func
	for _, r := range roots {
		if _, ok := from[r]; ok {
			continue
		}
		from[r] = r
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node, ok := g.nodes[fn]
		if !ok {
			continue // no body in the module (stdlib, assembly stub)
		}
		for _, callee := range node.callees {
			if _, ok := from[callee]; ok {
				continue
			}
			from[callee] = from[fn]
			queue = append(queue, callee)
		}
	}
	return from
}

// funcDisplayName renders a function for diagnostics: "Name" for package
// functions, "(T).Name" / "(*T).Name" for methods.
func funcDisplayName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	star := ""
	if p, ok := t.(*types.Pointer); ok {
		star = "*"
		t = p.Elem()
	}
	name := t.String()
	if i := strings.LastIndex(name, "."); i >= 0 {
		name = name[i+1:]
	}
	return "(" + star + name + ")." + fn.Name()
}

// sortFuncsByPos orders functions by their declaration position, giving
// deterministic root ordering for closure attribution.
func sortFuncsByPos(fns []*types.Func) {
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })
}
