package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// print-panic: library packages do not own the process. Writing to
// stdout/stderr from internal/... (fmt.Print*, the log package, the
// print/println builtins) hijacks output that belongs to the embedding
// binary, and a panic inside the wire packages turns a malformed network
// payload into a crashed aggregation server — the exact failure the
// quarantine path exists to prevent. Malformed input must surface as a
// typed error; genuine programmer-error invariants go through
// invariant.Failf, the one allowlisted panic helper, which keeps every
// intentional crash site greppable.

// invariantPkg is the allowlisted panic helper package (module-relative).
const invariantPkg = "internal/invariant"

func checkPrintPanic(l *loader, p *pkg) []Diagnostic {
	if !strings.HasPrefix(p.Rel, "internal/") || p.Rel == invariantPkg {
		return nil
	}
	inWirePkg := slices.Contains(wirePkgs, p.Rel)
	var out []Diagnostic
	inspectAll(p, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isBuiltin(p.Info, call, "print") || isBuiltin(p.Info, call, "println") {
			out = append(out, diag(l.fset, RulePrintPanic, call,
				"builtin %s in a library package writes to stderr; return data or an error instead", calleeName(call)))
			return true
		}
		if inWirePkg && isBuiltin(p.Info, call, "panic") {
			out = append(out, diag(l.fset, RulePrintPanic, call,
				"panic in a wire package; return a typed error for bad input, or use invariant.Failf for programmer errors"))
			return true
		}
		fn := calleeOf(p.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return true // methods (e.g. on a caller-injected *log.Logger) are fine
		}
		switch fn.Pkg().Path() {
		case "fmt":
			if strings.HasPrefix(fn.Name(), "Print") {
				out = append(out, diag(l.fset, RulePrintPanic, call,
					"fmt.%s in a library package writes to stdout; return data or log through the caller", fn.Name()))
			}
		case "log":
			if fn.Name() != "New" && !strings.HasPrefix(fn.Name(), "SetOutput") {
				out = append(out, diag(l.fset, RulePrintPanic, call,
					"log.%s in a library package writes to the process logger; surface errors to the caller", fn.Name()))
			}
		}
		return true
	})
	return out
}
