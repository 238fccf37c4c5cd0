package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// dataflow.go implements forward may-analyses over the CFG in cfg.go. The
// main client-facing piece is reaching definitions: for every (block,
// atom) point, which right-hand sides may currently define each local
// variable. The aliasing rule uses this to chase a slice variable back to
// the expressions that produced it.
//
// Definitions are tracked per *types.Var. A definition is either a
// concrete RHS expression or opaque (nil): parameters, definitions
// through multi-value assignments, range keys and anything else we do not
// model become opaque, which downstream queries must treat as "could be
// anything rooted at this variable".

// defSet is the set of expressions that may define a variable; the nil
// key marks an opaque definition.
type defSet map[ast.Expr]bool

// defState maps each tracked variable to its possible definitions.
type defState map[*types.Var]defSet

func (s defState) clone() defState {
	out := make(defState, len(s))
	for v, ds := range s {
		cp := make(defSet, len(ds))
		for e := range ds {
			cp[e] = true
		}
		out[v] = cp
	}
	return out
}

// mergeInto unions src into dst, reporting whether dst changed.
func (dst defState) mergeInto(src defState) bool {
	changed := false
	for v, ds := range src {
		t, ok := dst[v]
		if !ok {
			t = make(defSet, len(ds))
			dst[v] = t
		}
		for e := range ds {
			if !t[e] {
				t[e] = true
				changed = true
			}
		}
	}
	return changed
}

// reachDefs holds the fixpoint solution of the reaching-definitions
// analysis for one function.
type reachDefs struct {
	g    *funcCFG
	info *types.Info
	in   []defState // per block, state on entry
}

// reachingDefs runs the analysis over a function body. Parameters and
// named results start as opaque definitions at the entry block.
func reachingDefs(g *funcCFG, info *types.Info, ftype *ast.FuncType, recv *ast.FieldList) *reachDefs {
	rd := &reachDefs{g: g, info: info, in: make([]defState, len(g.blocks))}
	for i := range rd.in {
		rd.in[i] = make(defState)
	}

	entry := rd.in[g.entry.idx]
	seed := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					entry[v] = defSet{nil: true}
				}
			}
		}
	}
	seed(recv)
	seed(ftype.Params)
	seed(ftype.Results)

	// Worklist fixpoint: propagate transfer(in[b]) into every successor.
	work := make([]*block, 0, len(g.blocks))
	inWork := make([]bool, len(g.blocks))
	push := func(b *block) {
		if !inWork[b.idx] {
			inWork[b.idx] = true
			work = append(work, b)
		}
	}
	for _, b := range g.blocks {
		push(b)
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[b.idx] = false
		out := rd.in[b.idx].clone()
		for _, atom := range b.atoms {
			rd.transfer(out, atom)
		}
		for _, s := range b.succs {
			if rd.in[s.idx].mergeInto(out) {
				push(s)
			}
		}
	}
	return rd
}

// transfer applies one atom's effect to st in place.
func (rd *reachDefs) transfer(st defState, atom ast.Node) {
	switch n := atom.(type) {
	case *ast.AssignStmt:
		rd.assign(st, n)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				v, ok := rd.info.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				if len(vs.Values) == len(vs.Names) {
					st[v] = defSet{vs.Values[i]: true}
				} else {
					// zero value or multi-value initializer: opaque
					st[v] = defSet{nil: true}
				}
			}
		}
	case *ast.RangeStmt:
		// The value variable of a range over a slice/array derives from
		// the ranged container; keys and other forms are opaque.
		if id, ok := n.Key.(*ast.Ident); ok {
			if v := rd.lhsVar(id); v != nil {
				st[v] = defSet{nil: true}
			}
		}
		if id, ok := n.Value.(*ast.Ident); ok {
			if v := rd.lhsVar(id); v != nil {
				switch rd.info.TypeOf(n.X).Underlying().(type) {
				case *types.Slice, *types.Array, *types.Pointer:
					st[v] = defSet{n.X: true}
				default:
					st[v] = defSet{nil: true}
				}
			}
		}
	}
}

// assign handles =, := and the compound assignment operators.
func (rd *reachDefs) assign(st defState, n *ast.AssignStmt) {
	if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
		// Compound assignment (+=, |=, ...) keeps the variable rooted at
		// itself; treat as opaque redefinition of the same variable.
		if id, ok := n.Lhs[0].(*ast.Ident); ok {
			if v := rd.lhsVar(id); v != nil {
				st[v] = defSet{nil: true}
			}
		}
		return
	}
	if len(n.Lhs) == len(n.Rhs) {
		for i, lhs := range n.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue // writes through fields/indices are not tracked
			}
			if v := rd.lhsVar(id); v != nil {
				st[v] = defSet{n.Rhs[i]: true}
			}
		}
		return
	}
	// x, y := f(): every target becomes opaque.
	for _, lhs := range n.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		if v := rd.lhsVar(id); v != nil {
			st[v] = defSet{nil: true}
		}
	}
}

// lhsVar resolves an assignment target identifier to its variable object,
// covering both fresh definitions (:=) and plain assignments.
func (rd *reachDefs) lhsVar(id *ast.Ident) *types.Var {
	if id.Name == "_" {
		return nil
	}
	if v, ok := rd.info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := rd.info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// eachAtom invokes fn for every atom in the graph along with the state
// holding immediately before it executes. Blocks and atoms are visited in
// construction order, so diagnostics derived from this walk are
// deterministic.
func (rd *reachDefs) eachAtom(fn func(b *block, i int, st defState)) {
	for _, b := range rd.g.blocks {
		st := rd.in[b.idx].clone()
		for i, atom := range b.atoms {
			fn(b, i, st)
			rd.transfer(st, atom)
		}
	}
}
