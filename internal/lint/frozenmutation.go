package lint

// frozenmutation enforces the freeze contract that makes lock-free
// concurrent serving sound: once a Plan / ShardedPlan is frozen, evaluation
// must be write-free on the plan itself — all mutable state lives in pooled
// per-evaluation scratch. A field write smuggled onto the evaluation path in
// a refactor is a data race the type system cannot see (and -race only
// catches if a test happens to exercise two goroutines through the new
// write).
//
// The analysis is directive-driven so it survives refactors of the types
// themselves:
//   - types marked //pdblint:frozen are the sealed plan types;
//   - methods marked //pdblint:frozenentry are the concurrent evaluation
//     entry points (Probability, Result, ProbabilityBatch, ...);
//   - the static same-package call closure of the entry points is computed,
//     and every assignment (including map-index writes and += / ++) whose
//     left side selects a field of a frozen type is reported — unless the
//     containing function is marked //pdblint:mutates, the annotation for
//     the two legal write classes: structural-pass memo fills guarded by
//     missUnlessUnfrozen (a program recompile after an attach, which only
//     unfrozen single-goroutine plans see) and pool/arena bookkeeping that
//     never aliases plan fields.
//
// Writes hidden behind methods of non-frozen field types (interners, pools)
// are out of scope; the directive on those helpers' callers plus the race
// detector cover that residue.

import (
	"go/ast"
	"go/types"
)

// FrozenMutation is the analyzer instance.
var FrozenMutation = &Analyzer{
	Name: "frozenmutation",
	Doc:  "no writes to //pdblint:frozen type fields on the frozen evaluation path",
	Run:  runFrozenMutation,
}

func runFrozenMutation(pass *Pass) error {
	frozen := frozenTypes(pass)
	if len(frozen) == 0 {
		return nil
	}
	idx := indexFuncs(pass)

	// Entry points and the allowlist.
	var entries []*types.Func
	mutates := map[*types.Func]bool{}
	for obj, decl := range idx {
		if _, ok := FuncDirective(decl, "frozenentry"); ok {
			entries = append(entries, obj)
		}
		if _, ok := FuncDirective(decl, "mutates"); ok {
			mutates[obj] = true
		}
	}
	if len(entries) == 0 {
		return nil
	}

	// Static same-package call closure from the entry points.
	reachable := map[*types.Func]*types.Func{} // function -> entry it is reachable from
	var queue []*types.Func
	for _, e := range entries {
		reachable[e] = e
		queue = append(queue, e)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		decl := idx[fn]
		if decl == nil {
			continue
		}
		entry := reachable[fn]
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := staticCallee(pass.TypesInfo, call)
			if callee == nil || callee.Pkg() != pass.Pkg {
				return true
			}
			if _, seen := reachable[callee]; !seen {
				reachable[callee] = entry
				queue = append(queue, callee)
			}
			return true
		})
	}

	// Report frozen-field writes in the closure.
	for fn, entry := range reachable {
		if mutates[fn] {
			continue
		}
		decl := idx[fn]
		if decl == nil {
			continue
		}
		report := func(lhs ast.Expr) {
			field, owner, ok := frozenFieldWrite(pass, frozen, lhs)
			if !ok {
				return
			}
			pass.Reportf(lhs.Pos(),
				"write to %s field %s in %s, reachable from frozen evaluation entry %s (mark the function //pdblint:mutates if this is a guarded pre-freeze or pooled path)",
				owner, field, fn.Name(), entry.Name())
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // runs under its own caller's discipline
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					report(lhs)
				}
			case *ast.IncDecStmt:
				report(n.X)
			}
			return true
		})
	}
	return nil
}

// frozenTypes collects the named types marked //pdblint:frozen.
func frozenTypes(pass *Pass) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			declDirs := directives(gd.Doc)
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				dirs := append(append([]Directive{}, declDirs...), directives(ts.Doc, ts.Comment)...)
				for _, d := range dirs {
					if d.Name == "frozen" {
						if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
							out[tn] = true
						}
					}
				}
			}
		}
	}
	return out
}

// frozenFieldWrite reports whether lhs writes through a field of a frozen
// type: it strips index/star/paren wrappers and checks every field
// selection in the chain (so pl.setTrans[k] = v, pl.sets.buf = b and
// *pl.x = v all count).
func frozenFieldWrite(pass *Pass, frozen map[*types.TypeName]bool, lhs ast.Expr) (field, owner string, ok bool) {
	e := lhs
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel, found := pass.TypesInfo.Selections[x]; found && sel.Kind() == types.FieldVal {
				recv := sel.Recv()
				if ptr, isPtr := recv.(*types.Pointer); isPtr {
					recv = ptr.Elem()
				}
				if named, isNamed := recv.(*types.Named); isNamed && frozen[named.Obj()] {
					return x.Sel.Name, named.Obj().Name(), true
				}
			}
			e = x.X
		default:
			return "", "", false
		}
	}
}
