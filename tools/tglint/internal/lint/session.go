package lint

// Session drives fact-aware analysis over a source tree: before a
// package's diagnostics run, its in-scope dependencies get a facts-only
// pass (library files, no tests — test files cannot contribute importable
// facts and may themselves import back into the dependency graph), in
// dependency order, sharing one FactStore.

import (
	"fmt"
	"sort"
)

// Session runs an analyzer suite over packages with facts flowing across
// package boundaries.
type Session struct {
	Loader *Loader
	Suite  []*Analyzer
	Facts  *FactStore
	// InScope filters which import paths receive a facts pass; typically
	// "inside the module" or "inside the testdata tree". Out-of-scope
	// packages (the standard library) contribute no facts.
	InScope func(importPath string) bool

	factsDone map[string]bool
}

// NewSession returns a session over the loader's source tree.
func NewSession(loader *Loader, suite []*Analyzer, inScope func(string) bool) *Session {
	return &Session{
		Loader:    loader,
		Suite:     suite,
		Facts:     NewFactStore(),
		InScope:   inScope,
		factsDone: make(map[string]bool),
	}
}

// ensureFacts runs the facts-only pass for path and, first, its in-scope
// imports. Diagnostics from this pass are discarded; the diagnostics run
// in Analyze recomputes them with test files included.
func (s *Session) ensureFacts(path string) error {
	if s.factsDone[path] {
		return nil
	}
	s.factsDone[path] = true // pre-mark: import cycles are type errors anyway
	units, err := s.Loader.LoadForAnalysis(path, false)
	if err != nil {
		return err
	}
	for _, unit := range units {
		if err := s.ensureImportFacts(unit); err != nil {
			return err
		}
		if _, err := Run(s.Suite, s.Loader.Fset, unit.Files, unit.Pkg, unit.Info, s.Facts); err != nil {
			return fmt.Errorf("facts pass for %s: %w", path, err)
		}
	}
	return nil
}

// ensureImportFacts runs the facts pass for the unit's in-scope imports,
// in deterministic order.
func (s *Session) ensureImportFacts(unit *Unit) error {
	var deps []string
	for _, imp := range unit.Pkg.Imports() {
		if p := imp.Path(); s.InScope(p) {
			deps = append(deps, p)
		}
	}
	sort.Strings(deps)
	for _, dep := range deps {
		if err := s.ensureFacts(dep); err != nil {
			return err
		}
	}
	return nil
}

// Analyze runs the suite over the package at path (test files included)
// and returns its diagnostics and analysis units, with facts from every
// in-scope dependency available to the analyzers.
func (s *Session) Analyze(path string) ([]Diagnostic, []*Unit, error) {
	units, err := s.Loader.LoadForAnalysis(path, true)
	if err != nil {
		return nil, nil, err
	}
	var diags []Diagnostic
	for _, unit := range units {
		if err := s.ensureImportFacts(unit); err != nil {
			return nil, nil, err
		}
		ds, err := Run(s.Suite, s.Loader.Fset, unit.Files, unit.Pkg, unit.Info, s.Facts)
		if err != nil {
			return nil, nil, err
		}
		diags = append(diags, ds...)
	}
	return diags, units, nil
}
