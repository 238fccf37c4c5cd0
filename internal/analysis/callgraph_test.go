package analysis

import (
	"go/types"
	"testing"
)

// lookupFunc resolves a package-level function by name.
func lookupFunc(t *testing.T, p *pkg, name string) *types.Func {
	t.Helper()
	fn, ok := p.Types.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("function %s not found in %s", name, p.ImportPath)
	}
	return fn
}

// lookupMethod resolves a method on a package-level named type.
func lookupMethod(t *testing.T, p *pkg, typeName, method string) *types.Func {
	t.Helper()
	tn, ok := p.Types.Scope().Lookup(typeName).(*types.TypeName)
	if !ok {
		t.Fatalf("type %s not found in %s", typeName, p.ImportPath)
	}
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, p.Types, method)
	fn, ok := obj.(*types.Func)
	if !ok {
		t.Fatalf("method %s.%s not found", typeName, method)
	}
	return fn
}

func hasCallee(g *callGraph, from, to *types.Func) bool {
	n, ok := g.nodes[from]
	if !ok {
		return false
	}
	for _, c := range n.callees {
		if c == to {
			return true
		}
	}
	return false
}

// TestCallGraphFixture pins the three over-approximation guarantees on
// the fixture hot package: interface dispatch fans out to concrete
// methods, method values create edges, and mutual recursion neither
// hangs the closure walk nor falls out of it.
func TestCallGraphFixture(t *testing.T) {
	l, err := newLoader(fixtureRoot)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.load("fixture/internal/hot")
	if err != nil {
		t.Fatal(err)
	}
	g := buildCallGraph([]*pkg{p})

	feed := lookupFunc(t, p, "Feed")
	handle := lookupFunc(t, p, "Handle")
	even := lookupFunc(t, p, "Even")
	odd := lookupFunc(t, p, "Odd")
	bufAdd := lookupMethod(t, p, "Buf", "Add")

	if !hasCallee(g, feed, bufAdd) {
		t.Error("interface dispatch: Feed should have an edge to (*Buf).Add")
	}
	if !hasCallee(g, handle, bufAdd) {
		t.Error("method value: Handle should have an edge to (*Buf).Add")
	}
	if !hasCallee(g, even, odd) || !hasCallee(g, odd, even) {
		t.Error("mutual recursion: Even<->Odd edges missing")
	}

	// reach must terminate on the cycle and keep both halves (plus the
	// dispatched method) in the closure, attributed to the right roots.
	from := g.reach([]*types.Func{feed, even})
	if from[bufAdd] != feed {
		t.Errorf("(*Buf).Add attributed to %v, want Feed", from[bufAdd])
	}
	if from[odd] != even || from[even] != even {
		t.Error("recursive closure under-approximates: Even/Odd not reached from Even")
	}
}

// TestCallGraphRepo checks dispatch expansion over the real module's two
// central interfaces: fedcore.Aggregator (Engine.Run -> every aggregator
// Add) and compress.Codec (DecodeEnvelope -> every codec Decode).
func TestCallGraphRepo(t *testing.T) {
	l, err := newLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	fed, err := l.load("fhdnn/internal/fedcore")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := l.load("fhdnn/internal/compress")
	if err != nil {
		t.Fatal(err)
	}
	g := buildCallGraph([]*pkg{comp, fed})

	run := lookupMethod(t, fed, "Engine", "Run")
	for _, agg := range []string{"FedAvg", "Bundle", "Median"} {
		add := lookupMethod(t, fed, agg, "Add")
		if !hasCallee(g, run, add) {
			t.Errorf("Engine.Run should dispatch to (*%s).Add through Aggregator", agg)
		}
	}

	dec := lookupFunc(t, fed, "DecodeEnvelope")
	for _, codec := range []string{"Raw", "Float16", "Int8", "TopK"} {
		d := lookupMethod(t, comp, codec, "Decode")
		if !hasCallee(g, dec, d) {
			t.Errorf("DecodeEnvelope should dispatch to %s.Decode through compress.Codec", codec)
		}
	}
}
