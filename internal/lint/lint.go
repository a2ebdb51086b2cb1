// Package lint is pdblint's analysis framework and analyzer suite: custom
// static checks that machine-enforce the invariants this codebase's
// correctness rests on but the compiler cannot see — subscriber callbacks
// never run under the incr.Store lock (the PR 4 deadlock class), obs metric
// labels stay fixed enums (the PR 8 cardinality rule), hot-path kernels stay
// allocation- and fmt-free with their bounds-check-elimination hints intact,
// and internal packages log through slog instead of fmt/log prints.
//
// The Analyzer/Pass API deliberately mirrors golang.org/x/tools/go/analysis
// so each checker reads like a standard vet analyzer and porting onto the
// real framework is mechanical; the build environment is hermetic (no module
// downloads), so the few dozen lines of driver scaffolding live here instead
// of in an external dependency. cmd/pdblint is the multichecker: it speaks
// the `go vet -vettool` unitchecker protocol, so the suite runs over the
// whole tree — test files included — with the go command doing package
// loading and caching.
//
// # Directives
//
// Analyzers are steered by machine-readable comments (same style as
// //go:build):
//
//	//pdblint:hotpath [boundshint] [-maprange]   on a function: ban fmt calls,
//	    string concatenation, closure allocation and map iteration in the
//	    body; `boundshint` additionally requires a `_ = s[n]` bounds-check
//	    hint statement; `-maprange` permits map iteration (for maps that
//	    are the input by design, such as per-lane probability maps).
//	//pdblint:labelenum       on a package-level var: a fixed enum of metric
//	    label values; ranging over it yields legal label strings.
//	//pdblint:allow <analyzer> [why]   suppress that analyzer's diagnostics
//	    on this line (trailing comment) or the next line (standalone
//	    comment). Every use should carry a why.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check: a name (used in diagnostics and allow
// directives), a one-line contract statement, and the per-package Run.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one package's syntax and type information through an
// analyzer, mirroring analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
	// allowed[file:line] holds the analyzer names suppressed on that line
	// via //pdblint:allow directives.
	allowed map[fileLine]map[string]bool
}

// fileLine keys suppression per file, not per raw line number — packages
// have many files and line numbers collide across them.
type fileLine struct {
	file string
	line int
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a diagnostic unless an //pdblint:allow directive covers
// its line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Allowed(pos) {
		return
	}
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Allowed reports whether an //pdblint:allow directive for the running
// analyzer covers the line of pos.
func (p *Pass) Allowed(pos token.Pos) bool {
	if p.allowed == nil {
		return false
	}
	pp := p.Fset.Position(pos)
	return p.allowed[fileLine{pp.Filename, pp.Line}][p.Analyzer.Name]
}

// Run executes one analyzer over one type-checked package and returns its
// diagnostics sorted by position.
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		allowed:   allowLines(fset, files),
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	sort.Slice(pass.diags, func(i, j int) bool { return pass.diags[i].Pos < pass.diags[j].Pos })
	return pass.diags, nil
}

// NewInfo returns a types.Info with every map an analyzer needs populated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// --- directives ---

// Directive is one parsed //pdblint:<name> [args...] comment.
type Directive struct {
	Name string
	Args []string
	Pos  token.Pos
}

// parseDirective parses a single comment into a directive, if it is one.
func parseDirective(c *ast.Comment) (Directive, bool) {
	const prefix = "//pdblint:"
	if !strings.HasPrefix(c.Text, prefix) {
		return Directive{}, false
	}
	fields := strings.Fields(c.Text[len(prefix):])
	if len(fields) == 0 {
		return Directive{}, false
	}
	return Directive{Name: fields[0], Args: fields[1:], Pos: c.Pos()}, true
}

// directives extracts the pdblint directives from a comment group.
func directives(groups ...*ast.CommentGroup) []Directive {
	var out []Directive
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if d, ok := parseDirective(c); ok {
				out = append(out, d)
			}
		}
	}
	return out
}

// FuncDirective returns the named directive from a function's doc comment.
func FuncDirective(decl *ast.FuncDecl, name string) (Directive, bool) {
	for _, d := range directives(decl.Doc) {
		if d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

// allowLines indexes every //pdblint:allow directive: a trailing comment
// suppresses its own line, a standalone comment suppresses the next line
// (both are recorded — over-approximating by one line keeps the scan
// position-free).
func allowLines(fset *token.FileSet, files []*ast.File) map[fileLine]map[string]bool {
	out := map[fileLine]map[string]bool{}
	add := func(k fileLine, analyzer string) {
		m := out[k]
		if m == nil {
			m = map[string]bool{}
			out[k] = m
		}
		m[analyzer] = true
	}
	for _, f := range files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				d, ok := parseDirective(c)
				if !ok || d.Name != "allow" || len(d.Args) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				add(fileLine{pos.Filename, pos.Line}, d.Args[0])
				add(fileLine{pos.Filename, pos.Line + 1}, d.Args[0])
			}
		}
	}
	return out
}
