// Package lint is a small, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis core: an Analyzer runs over one
// type-checked package and reports position-tagged diagnostics. It exists
// because this repository builds offline (no module proxy), so the real
// x/tools analysis framework cannot be vendored; the API mirrors it
// closely enough that the analyzers in ../checks could be ported to
// x/tools by changing only import paths.
//
// One driver feeds it: the standalone module walker (tglint ./...) in
// tools/tglint.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name is the analyzer's command-line and diagnostic prefix name.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run executes the check against one package.
	Run func(*Pass) error
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer *Analyzer
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	facts *FactStore // nil when the caller keeps no facts
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer,
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// PkgPath returns the package's import path normalized for matching
// against configured package lists: an external test package's "_test"
// suffix is stripped so a package's test files inherit its rules.
func (p *Pass) PkgPath() string {
	return NormalizePkgPath(p.Pkg.Path())
}

// NormalizePkgPath maps an external test package path "p_test" to "p".
func NormalizePkgPath(path string) string {
	return strings.TrimSuffix(path, "_test")
}

// Preorder walks every file in the pass in depth-first preorder, calling
// f for each node.
func (p *Pass) Preorder(f func(ast.Node)) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n != nil {
				f(n)
			}
			return true
		})
	}
}

// Run executes the analyzers against one package and returns their
// diagnostics sorted by position. facts, when non-nil, is the session's
// fact store: analyzers read facts exported by previously analyzed
// dependencies from it and add this package's facts to it.
func Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, facts *FactStore) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			facts:     facts,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// NewTypesInfo returns a types.Info with every map the analyzers need.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
