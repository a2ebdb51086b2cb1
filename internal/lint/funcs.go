package lint

// Shared syntax/type helpers: resolving call targets, indexing a package's
// function declarations, and rendering lock expressions — used by the
// lockcallback analyzer, which reasons over the package's static call graph,
// and by the others that resolve callees.

import (
	"go/ast"
	"go/types"
)

// funcIndex maps a package's *types.Func objects to their declarations, so
// static calls can be chased into bodies within the package.
type funcIndex map[*types.Func]*ast.FuncDecl

// indexFuncs builds the declaration index over the pass's files.
func indexFuncs(pass *Pass) funcIndex {
	idx := funcIndex{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				idx[obj] = fd
			}
		}
	}
	return idx
}

// staticCallee resolves the *types.Func a call statically dispatches to:
// package-level functions, methods called through a concrete receiver, and
// imported functions. It returns nil for calls of function values (the
// dynamic calls lockcallback exists to find), interface method calls, and
// type conversions.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil // field of function type: a dynamic call
			}
			fn, _ := sel.Obj().(*types.Func)
			if fn == nil {
				return nil
			}
			if types.IsInterface(recvType(fn)) {
				return nil // dynamic dispatch; opaque to the call graph
			}
			return fn
		}
		// Package-qualified: pkg.Fn(...).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// recvType returns the receiver's type (nil for non-methods).
func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// isConversion reports whether a CallExpr is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// isBuiltinCall reports whether a call targets a builtin (append, len, ...).
func isBuiltinCall(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			return true
		}
	}
	return false
}

// dynamicCall reports whether call invokes a function value — a variable,
// parameter, struct field or map/slice element of function type — rather
// than a statically known function. These are the calls that can re-enter
// arbitrary code (subscriber callbacks, hooks, onEvict handlers).
func dynamicCall(info *types.Info, call *ast.CallExpr) bool {
	if isConversion(info, call) || isBuiltinCall(info, call) {
		return false
	}
	fun := ast.Unparen(call.Fun)
	tv, ok := info.Types[fun]
	if !ok {
		return false
	}
	if _, isSig := tv.Type.Underlying().(*types.Signature); !isSig {
		return false
	}
	switch f := fun.(type) {
	case *ast.Ident:
		_, isFunc := info.Uses[f].(*types.Func)
		return !isFunc
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			return sel.Kind() == types.FieldVal
		}
		// Package-qualified selector: pkg.Fn is static, pkg.Var dynamic.
		_, isFunc := info.Uses[f.Sel].(*types.Func)
		return !isFunc
	case *ast.FuncLit:
		// Immediately-invoked literal: the body runs right here; the walkers
		// descend into it instead of flagging the call itself.
		return false
	default:
		// Call of a call result, index expression, type assertion, ...:
		// a function value of unknown provenance.
		return true
	}
}

// pkgPathOf returns the import path of the package a function belongs to
// ("" for builtins and error.Error-style universe methods).
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// exprKey renders an expression as a stable string key ("s.mu") for lock
// identity tracking and diagnostics.
func exprKey(e ast.Expr) string {
	return types.ExprString(e)
}
