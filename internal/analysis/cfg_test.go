package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseFunc parses a single-file package and returns the named
// function's declaration. The CFG is purely syntactic, so no type
// information is needed.
func parseFunc(t *testing.T, src, name string) *ast.FuncDecl {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "src.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

// reachableFrom collects the blocks reachable from b.
func reachableFrom(b *block) map[*block]bool {
	seen := map[*block]bool{b: true}
	stack := []*block{b}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range cur.succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// TestCFGStructure exercises every control construct the builder handles
// and checks the graph's global invariants: the exit is reachable, every
// atom lives in exactly one block, and loops produce back edges.
func TestCFGStructure(t *testing.T) {
	src := `package p
func f(xs []int, ch chan int, cond bool) int {
	total := 0
	if cond {
		total++
	} else {
		total--
	}
outer:
	for i := 0; i < 10; i++ {
		for _, x := range xs {
			if x == 3 {
				continue
			}
			if x == 4 {
				break outer
			}
			total += x
		}
	}
	switch total {
	case 1:
		total = 2
		fallthrough
	case 2:
		total = 3
	default:
		total = 4
	}
	select {
	case v := <-ch:
		total += v
	default:
	}
	goto done
done:
	return total
}`
	fd := parseFunc(t, src, "f")
	g := buildCFG(fd.Body)

	reach := reachableFrom(g.entry)
	if !reach[g.exit] {
		t.Fatal("exit block not reachable from entry")
	}

	seen := make(map[ast.Node]*block)
	for _, b := range g.blocks {
		for _, a := range b.atoms {
			if prev, dup := seen[a]; dup {
				t.Errorf("atom %T appears in blocks %d and %d", a, prev.idx, b.idx)
			}
			seen[a] = b
		}
	}

	backEdges := 0
	for _, b := range g.blocks {
		for _, s := range b.succs {
			if s.idx <= b.idx {
				backEdges++
			}
		}
	}
	if backEdges < 2 {
		t.Errorf("expected back edges for both loops, found %d", backEdges)
	}

	comms := 0
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if cc, ok := n.(*ast.CommClause); ok && cc.Comm != nil {
			comms++
			if seen[cc.Comm] == nil {
				t.Error("select arm's communication statement is not an atom")
			}
		}
		return true
	})
	if comms != 1 {
		t.Errorf("expected 1 select comm statement, got %d", comms)
	}
}

// TestCFGUnreachableCode pins that statements after a return still get a
// block (no atoms are dropped) without becoming reachable.
func TestCFGUnreachableCode(t *testing.T) {
	src := `package p
func f() int {
	return 1
	return 2
}`
	fd := parseFunc(t, src, "f")
	g := buildCFG(fd.Body)
	atoms := 0
	for _, b := range g.blocks {
		atoms += len(b.atoms)
	}
	if atoms != 2 {
		t.Fatalf("expected both return atoms in the graph, got %d", atoms)
	}
}

// blockOfCall finds the block holding the atom that calls the named
// package function — fixture statements are tagged with no-op calls.
func blockOfCall(t *testing.T, g *funcCFG, name string) *block {
	t.Helper()
	for _, b := range g.blocks {
		for _, a := range b.atoms {
			found := false
			shallowInspect(a, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					if id, ok := c.Fun.(*ast.Ident); ok && id.Name == name {
						found = true
					}
				}
				return true
			})
			if found {
				return b
			}
		}
	}
	t.Fatalf("no atom calls %s", name)
	return nil
}

// TestDominators pins the dominance relation the taint sanitizer leans
// on (a guard only counts if its block dominates the use): the
// straight-line prefix dominates everything, branch arms do not
// dominate their join, and a loop body (which may run zero times) does
// not dominate the statements after the loop.
func TestDominators(t *testing.T) {
	src := `package p
func before()
func thenA()
func elseB()
func join()
func body()
func after()
func f(cond bool, n int) {
	before()
	if cond {
		thenA()
	} else {
		elseB()
	}
	join()
	for i := 0; i < n; i++ {
		body()
	}
	after()
}`
	fd := parseFunc(t, src, "f")
	g := buildCFG(fd.Body)
	dom := g.dominators()

	bBefore := blockOfCall(t, g, "before")
	bThen := blockOfCall(t, g, "thenA")
	bElse := blockOfCall(t, g, "elseB")
	bJoin := blockOfCall(t, g, "join")
	bBody := blockOfCall(t, g, "body")
	bAfter := blockOfCall(t, g, "after")

	for _, b := range []*block{bBefore, bThen, bElse, bJoin, bBody, bAfter} {
		if !dom[b.idx][g.entry.idx] {
			t.Errorf("entry should dominate block %d", b.idx)
		}
		if !dom[b.idx][b.idx] {
			t.Errorf("block %d should dominate itself", b.idx)
		}
		if !dom[b.idx][bBefore.idx] {
			t.Errorf("the straight-line prefix should dominate block %d", b.idx)
		}
	}
	if dom[bJoin.idx][bThen.idx] || dom[bJoin.idx][bElse.idx] {
		t.Error("a branch arm must not dominate the join after the if")
	}
	if !dom[bBody.idx][bJoin.idx] || !dom[bAfter.idx][bJoin.idx] {
		t.Error("the join should dominate the loop body and the statements after the loop")
	}
	if dom[bAfter.idx][bBody.idx] {
		t.Error("a zero-iteration loop body must not dominate the statements after the loop")
	}
	if dom[bBefore.idx][bThen.idx] {
		t.Error("dominance is not symmetric: a later block must not dominate the prefix")
	}
}
