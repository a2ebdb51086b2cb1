package lint

// hotpath enforces the allocation- and formatting-free discipline of the
// kernel layer on functions marked //pdblint:hotpath: the lane-block
// kernels and the compiled row program are called once per DP row per
// evaluation, so a stray fmt call, string concatenation or closure
// allocation silently costs the ~4× lane speedup the PR 6 benchmarks
// established.
//
// In a marked body the analyzer reports:
//   - any call into package fmt (including Sprintf / Errorf);
//   - string concatenation (+ / += on string operands);
//   - function literals (closure allocation);
//   - map iteration (range over a map), unless the directive carries
//     -maprange — for maps that are the input by design, such as the
//     per-lane probability maps the weight fill scatters.
//
// The directive argument `boundshint` additionally requires the body to keep
// at least one `_ = s[i]` statement — the bounds-check-elimination hint the
// kernels rely on for branch-free inner loops; deleting the hint in a
// refactor is a silent performance regression the compiler will not report.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath is the analyzer instance.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "ban fmt, string concat, closures and map iteration in //pdblint:hotpath bodies",
	Run:  runHotPath,
}

func runHotPath(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			dir, marked := FuncDirective(fd, "hotpath")
			if !marked {
				continue
			}
			wantBoundsHint, allowMapRange := false, false
			for _, arg := range dir.Args {
				switch arg {
				case "boundshint":
					wantBoundsHint = true
				case "-maprange":
					allowMapRange = true
				}
			}
			checkHotBody(pass, fd, allowMapRange)
			if wantBoundsHint && !hasBoundsHint(fd.Body) {
				pass.Reportf(fd.Name.Pos(),
					"hotpath function %s declares boundshint but its body has no `_ = s[i]` bounds-check hint", fd.Name.Name)
			}
		}
	}
	return nil
}

// checkHotBody walks a marked body reporting banned constructs.
func checkHotBody(pass *Pass, fd *ast.FuncDecl, allowMapRange bool) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure allocation in hotpath function %s", fd.Name.Name)
			return false
		case *ast.CallExpr:
			if fn := staticCallee(info, n); fn != nil && pkgPathOf(fn) == "fmt" {
				pass.Reportf(n.Pos(), "fmt.%s call in hotpath function %s", fn.Name(), fd.Name.Name)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(info, n.X) {
				pass.Reportf(n.OpPos, "string concatenation in hotpath function %s", fd.Name.Name)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(info, n.Lhs[0]) {
				pass.Reportf(n.TokPos, "string concatenation in hotpath function %s", fd.Name.Name)
			}
		case *ast.RangeStmt:
			if !allowMapRange {
				if tv, ok := info.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(n.For, "map iteration in hotpath function %s (add -maprange to the directive if the table is map-keyed by design)", fd.Name.Name)
					}
				}
			}
		}
		return true
	})
}

// isStringExpr reports whether e has string type.
func isStringExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, isBasic := tv.Type.Underlying().(*types.Basic)
	return isBasic && basic.Info()&types.IsString != 0
}

// hasBoundsHint reports whether the body contains a `_ = s[i]` statement —
// an assignment of an index expression to the blank identifier.
func hasBoundsHint(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, isIdent := as.Lhs[0].(*ast.Ident)
		if !isIdent || id.Name != "_" {
			return true
		}
		if _, isIndex := ast.Unparen(as.Rhs[0]).(*ast.IndexExpr); isIndex {
			found = true
		}
		return true
	})
	return found
}
