package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// wire-error: a dropped error on the serialization/HTTP path is how a
// lossy channel turns into silent corruption — an unchecked w.Write
// truncates a model broadcast, an unchecked Close loses the write-back
// of a checkpoint, an unchecked envelope encode ships garbage. The rule
// has two tiers:
//
//   - inside the wire packages themselves (internal/compress,
//     internal/fedcore, internal/flnet, internal/link) every call whose
//     trailing result is an error must consume it;
//   - everywhere else, calls into the serialization-relevant packages
//     (net/http, encoding/json, encoding/binary, io, os, and the
//     module's own wire + hdc serialization packages) must consume it.
//
// Only invisible discards are flagged: a call used as a bare statement,
// or discarded behind defer/go. An explicit `_ =` (or `, _`) assignment
// is a visible, reviewable acknowledgement and passes.
var wirePkgs = []string{"internal/compress", "internal/fedcore", "internal/flnet", "internal/link"}

// wireCalleePkgs are the callee packages checked from *any* package.
// Module-local entries are stored relative and matched against the
// loader's module path.
var wireCalleePkgs = map[string]bool{
	"net/http":        true,
	"encoding/json":   true,
	"encoding/binary": true,
	"io":              true,
	"os":              true,
}

var wireCalleeRelPkgs = []string{
	"internal/compress", "internal/fedcore", "internal/flnet", "internal/link", "internal/hdc",
}

func checkWireErrors(l *loader, p *pkg) []Diagnostic {
	inWirePkg := slices.Contains(wirePkgs, p.Rel)
	var out []Diagnostic
	flag := func(call *ast.CallExpr, how string) {
		if !dropsTrailingError(p.Info, call) || neverFails(p.Info, call) {
			return
		}
		// fmt's stdout print family belongs to the print-panic rule; a
		// second wire-error finding on the same call would be noise.
		if path := calleePkgPath(p.Info, call); path == "fmt" {
			if fn := calleeOf(p.Info, call); fn != nil && strings.HasPrefix(fn.Name(), "Print") {
				return
			}
		}
		if !inWirePkg && !wireCallee(l, p, call) {
			return
		}
		out = append(out, diag(l.fset, RuleWireError, call,
			"%serror from %s is dropped on a wire path; handle it or discard explicitly with _ =",
			how, calleeName(call)))
	}
	inspectAll(p, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				flag(call, "")
			}
		case *ast.DeferStmt:
			flag(n.Call, "deferred ")
		case *ast.GoStmt:
			flag(n.Call, "goroutine-spawned ")
		}
		return true
	})
	return out
}

// wireCallee reports whether the call targets one of the packages whose
// errors are load-bearing on the wire path.
func wireCallee(l *loader, p *pkg, call *ast.CallExpr) bool {
	path := calleePkgPath(p.Info, call)
	if path == "" {
		return false
	}
	if wireCalleePkgs[path] {
		return true
	}
	for _, rel := range wireCalleeRelPkgs {
		if path == l.module+"/"+rel {
			return true
		}
	}
	return false
}

// neverFails exempts the handful of stdlib writers documented to always
// return a nil error (bytes.Buffer, strings.Builder): checking those is
// pure noise and the community idiom is to not.
func neverFails(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type().String()
	return strings.HasSuffix(recv, "bytes.Buffer") || strings.HasSuffix(recv, "strings.Builder")
}
