package analysis

import (
	"go/ast"
	"go/types"
)

// Shared AST/type helpers for the rule implementations.

// calleeOf resolves the called function object of a call expression:
// a *types.Func for ordinary functions and methods (including interface
// methods), nil for conversions, builtins, and calls through function
// values.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isConversion reports whether a call expression is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// isBuiltin reports whether a call invokes the named universe builtin
// (panic, append, print, ...).
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// signatureOf returns the signature of a call's callee, nil for
// conversions and builtins.
func signatureOf(info *types.Info, call *ast.CallExpr) *types.Signature {
	if isConversion(info, call) {
		return nil
	}
	tv, ok := info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

var errorType = types.Universe.Lookup("error").Type()

// dropsTrailingError reports whether the call returns an error as its
// last result (the convention on every path this analyzer cares about).
func dropsTrailingError(info *types.Info, call *ast.CallExpr) bool {
	sig := signatureOf(info, call)
	if sig == nil || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, errorType)
}

// calleePkgPath returns the import path of the package defining the
// callee ("" when unresolvable). For interface methods this is the
// package declaring the interface (io for io.Closer.Close, net/http for
// http.ResponseWriter.Write) — exactly the granularity the wire-error
// rule scopes by.
func calleePkgPath(info *types.Info, call *ast.CallExpr) string {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// calleeName renders a call target for messages ("resp.Body.Close",
// "w.Write", "json.NewEncoder(w).Encode").
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		if x, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			if xx, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				return xx.Name + "." + x.Sel.Name + "." + fun.Sel.Name
			}
		}
		return fun.Sel.Name
	}
	return "call"
}

// inspectAll walks every file of the package.
func inspectAll(p *pkg, fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}
