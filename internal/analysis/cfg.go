package analysis

import (
	"go/ast"
	"go/token"
)

// cfg.go builds the intraprocedural control-flow graph that the taint
// engine's dominating-guard sanitizer runs on. The graph is
// statement-level: every basic block holds a sequence of "atoms" — simple
// statements and the head expressions of control statements — in
// execution order, and edges connect blocks along every possible control
// path (both branches of an if, loop back-edges, every switch/select arm,
// returns to the exit block).
//
// Atoms are deliberately shallow: a control statement contributes only
// the expression evaluated at its head (an if contributes its Cond, a
// switch its Tag), never its body — bodies become their own blocks. Rules
// therefore inspect atoms with shallowInspect, which refuses to descend
// into nested blocks and function literals, so a rule walking block atoms
// sees each evaluated node exactly once, in the block that executes it.

// block is one basic block.
type block struct {
	idx   int
	atoms []ast.Node
	succs []*block
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	blocks []*block
	entry  *block
	exit   *block
}

// buildCFG constructs the CFG of a function body. The exit block is the
// unique sink: returns, panics falling off the end, and (conservatively)
// goto statements all flow there.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	g := &funcCFG{}
	b := &cfgBuilder{g: g}
	g.entry = b.newBlock()
	g.exit = b.newBlock()
	b.cur = g.entry
	b.stmts(body.List)
	b.edge(b.cur, g.exit)
	return g
}

// shallowInspect walks an atom without descending into nested blocks or
// function literals: statements inside a BlockStmt belong to other CFG
// blocks, and a FuncLit body runs at some other time entirely.
func shallowInspect(n ast.Node, fn func(ast.Node) bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		switch m.(type) {
		case *ast.BlockStmt, *ast.FuncLit:
			return false
		}
		return fn(m)
	})
}

// branchTarget is one enclosing breakable/continuable construct.
type branchTarget struct {
	label string
	brk   *block
	cont  *block // nil for switch/select (continue skips past them)
}

type cfgBuilder struct {
	g   *funcCFG
	cur *block // nil after a terminating statement (unreachable code)
	// targets is the stack of enclosing break/continue targets.
	targets []branchTarget
	// pendingLabel is the label of a LabeledStmt whose statement is about
	// to be built (consumed by the next loop/switch/select).
	pendingLabel string
	// fallthroughTo is the body block of the next case clause while a
	// switch clause is being built.
	fallthroughTo *block
}

func (b *cfgBuilder) newBlock() *block {
	blk := &block{idx: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.succs {
		if s == to {
			return
		}
	}
	from.succs = append(from.succs, to)
}

// add appends an atom to the current block, materializing an unreachable
// block for dead code so every atom still has a home.
func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.atoms = append(b.cur.atoms, n)
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for the construct being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)

	case *ast.LabeledStmt:
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.pendingLabel = s.Label.Name
		}
		b.stmt(s.Stmt)

	case *ast.IfStmt:
		b.add(s.Init)
		b.add(s.Cond)
		head := b.cur
		after := b.newBlock()
		thenB := b.newBlock()
		b.edge(head, thenB)
		b.cur = thenB
		b.stmts(s.Body.List)
		b.edge(b.cur, after)
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(head, elseB)
			b.cur = elseB
			b.stmt(s.Else)
			b.edge(b.cur, after)
		} else {
			b.edge(head, after)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		b.add(s.Init)
		cond := b.newBlock()
		b.edge(b.cur, cond)
		b.cur = cond
		b.add(s.Cond)
		body := b.newBlock()
		post := b.newBlock()
		after := b.newBlock()
		b.edge(cond, body)
		if s.Cond != nil {
			b.edge(cond, after)
		}
		b.targets = append(b.targets, branchTarget{label: label, brk: after, cont: post})
		b.cur = body
		b.stmts(s.Body.List)
		b.edge(b.cur, post)
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = post
		b.add(s.Post)
		b.edge(post, cond)
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.edge(b.cur, head)
		// The whole RangeStmt is the head atom: shallowInspect sees the
		// ranged expression and the key/value targets but not the body.
		head.atoms = append(head.atoms, s)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.targets = append(b.targets, branchTarget{label: label, brk: after, cont: head})
		b.cur = body
		b.stmts(s.Body.List)
		b.edge(b.cur, head)
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		b.add(s.Init)
		b.add(s.Tag)
		b.caseClauses(label, s.Body.List, func(c ast.Stmt) ([]ast.Node, []ast.Stmt, bool) {
			cc := c.(*ast.CaseClause)
			atoms := make([]ast.Node, len(cc.List))
			for i, e := range cc.List {
				atoms[i] = e
			}
			return atoms, cc.Body, cc.List == nil
		}, true)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		b.add(s.Init)
		b.add(s.Assign)
		b.caseClauses(label, s.Body.List, func(c ast.Stmt) ([]ast.Node, []ast.Stmt, bool) {
			cc := c.(*ast.CaseClause)
			return nil, cc.Body, cc.List == nil
		}, false)

	case *ast.SelectStmt:
		label := b.takeLabel()
		// Each arm's communication statement is its head atom, so a
		// `v := <-ch` arm's definition of v is seen by the taint transfer.
		b.caseClauses(label, s.Body.List, func(c ast.Stmt) ([]ast.Node, []ast.Stmt, bool) {
			cc := c.(*ast.CommClause)
			if cc.Comm == nil {
				return nil, cc.Body, true
			}
			return []ast.Node{cc.Comm}, cc.Body, false
		}, false)

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.exit)
		b.cur = nil

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(s, false); t != nil {
				b.edge(b.cur, t.brk)
			}
		case token.CONTINUE:
			if t := b.findTarget(s, true); t != nil {
				b.edge(b.cur, t.cont)
			}
		case token.FALLTHROUGH:
			b.edge(b.cur, b.fallthroughTo)
		case token.GOTO:
			// Conservative: model goto as flowing to the exit block.
			b.edge(b.cur, b.g.exit)
		}
		b.cur = nil

	default:
		// Simple statements: assignments, expression statements, channel
		// sends, inc/dec, declarations, defer, go, empty.
		b.add(s)
	}
}

// findTarget resolves a break/continue to its enclosing construct.
func (b *cfgBuilder) findTarget(s *ast.BranchStmt, needCont bool) *branchTarget {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := &b.targets[i]
		if needCont && t.cont == nil {
			continue
		}
		if s.Label == nil || s.Label.Name == t.label {
			return t
		}
	}
	return nil
}

// caseClauses builds the shared arm structure of switch/type-switch/select
// statements: every arm branches from the head block, arms flow to a
// common after block, and a missing default arm lets the head flow to
// after directly. split extracts an arm's head atoms, body, and whether it
// is the default arm; allowFallthrough enables fallthrough edges.
func (b *cfgBuilder) caseClauses(label string, clauses []ast.Stmt, split func(ast.Stmt) ([]ast.Node, []ast.Stmt, bool), allowFallthrough bool) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	after := b.newBlock()
	b.targets = append(b.targets, branchTarget{label: label, brk: after})

	bodies := make([]*block, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock()
	}
	hasDefault := false
	for i, c := range clauses {
		atoms, bodyStmts, isDefault := split(c)
		if isDefault {
			hasDefault = true
		}
		b.edge(head, bodies[i])
		bodies[i].atoms = append(bodies[i].atoms, atoms...)
		b.cur = bodies[i]
		savedFT := b.fallthroughTo
		if allowFallthrough && i+1 < len(clauses) {
			b.fallthroughTo = bodies[i+1]
		} else {
			b.fallthroughTo = nil
		}
		b.stmts(bodyStmts)
		b.fallthroughTo = savedFT
		b.edge(b.cur, after)
	}
	if !hasDefault || len(clauses) == 0 {
		b.edge(head, after)
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = after
}

// preds computes the predecessor lists of every block.
func (g *funcCFG) preds() [][]*block {
	in := make([][]*block, len(g.blocks))
	for _, blk := range g.blocks {
		for _, s := range blk.succs {
			in[s.idx] = append(in[s.idx], blk)
		}
	}
	return in
}

// dominators computes the block-level dominator relation: dom[i] is the
// set of block indices that dominate block i (every path from entry to i
// passes through them; a block dominates itself). Blocks unreachable from
// the entry dominate nothing and are dominated by everything, which is
// the conventional bottom for the standard forward fixpoint below — dead
// code never runs, so the taint sanitizer treating it as guarded by every
// comparison is harmless.
//
// The algorithm is the classic iterative one: dom(entry) = {entry},
// dom(b) = {b} ∪ ⋂ dom(p) over predecessors p, iterated to fixpoint.
// Graphs here are function bodies (tens of blocks), so the simple
// bitset-free formulation is plenty fast.
func (g *funcCFG) dominators() []map[int]bool {
	n := len(g.blocks)
	preds := g.preds()
	dom := make([]map[int]bool, n)
	all := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		all[i] = true
	}
	for i := 0; i < n; i++ {
		if i == g.entry.idx {
			dom[i] = map[int]bool{i: true}
		} else {
			dom[i] = all
		}
	}
	changed := true
	for changed {
		changed = false
		for i := 0; i < n; i++ {
			if i == g.entry.idx {
				continue
			}
			var meet map[int]bool
			for _, p := range preds[i] {
				pd := dom[p.idx]
				if meet == nil {
					meet = make(map[int]bool, len(pd))
					for k := range pd {
						meet[k] = true
					}
					continue
				}
				for k := range meet {
					if !pd[k] {
						delete(meet, k)
					}
				}
			}
			if meet == nil { // unreachable: keep the ⊤ set
				continue
			}
			meet[i] = true
			if len(meet) != len(dom[i]) {
				dom[i] = meet
				changed = true
				continue
			}
			for k := range meet {
				if !dom[i][k] {
					dom[i] = meet
					changed = true
					break
				}
			}
		}
	}
	return dom
}
