package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Unit is one type-checked analysis unit: a package's compiled files plus,
// optionally, its in-package test files, or an external _test package.
type Unit struct {
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages without the go toolchain,
// resolving imports from a configurable source tree and falling back to
// type-checking the standard library from $GOROOT/src. It serves the
// tglint driver and the analyzer golden tests.
type Loader struct {
	Fset *token.FileSet
	// Resolve maps an import path to the directory holding its source, or
	// "" when the loader does not provide it (then the standard-library
	// source importer is consulted).
	Resolve func(importPath string) string
	// GoVersion, when non-empty (e.g. "go1.22"), bounds the language
	// version accepted by the type checker.
	GoVersion string

	std types.ImporterFrom
	// pkgs caches the canonical library-only unit per import path. Exactly
	// one *types.Package instance may ever exist per path within a loader:
	// the type checker compares Named types by identity, so a second check
	// of the same source produces types incompatible with the first.
	pkgs map[string]*Unit
}

// NewLoader returns a loader resolving imports through resolve.
func NewLoader(resolve func(string) string, goVersion string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:      fset,
		Resolve:   resolve,
		GoVersion: goVersion,
		std:       importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:      make(map[string]*Unit),
	}
}

// ModuleResolver maps import paths below modulePath into rootDir.
func ModuleResolver(modulePath, rootDir string) func(string) string {
	return func(path string) string {
		if path == modulePath {
			return rootDir
		}
		if rest, ok := strings.CutPrefix(path, modulePath+"/"); ok {
			return filepath.Join(rootDir, filepath.FromSlash(rest))
		}
		return ""
	}
}

// GopathResolver maps any import path into srcRoot (GOPATH-style layout,
// as used by the analyzer testdata trees).
func GopathResolver(srcRoot string) func(string) string {
	return func(path string) string {
		dir := filepath.Join(srcRoot, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir
		}
		return ""
	}
}

// parseDir parses the buildable .go files of dir, honoring build
// constraints, split into compiled, in-package test, and external test
// file groups.
func (l *Loader) parseDir(dir string) (lib, test, xtest []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	ctxt := build.Default
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		match, err := ctxt.MatchFile(dir, e.Name())
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		if match {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			lib = append(lib, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			xtest = append(xtest, f)
		default:
			test = append(test, f)
		}
	}
	return lib, test, xtest, nil
}

// importPkg type-checks the compiled (non-test) variant of path for use
// as an import, caching the resulting unit.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	unit, err := l.libUnit(path)
	if err != nil {
		return nil, err
	}
	if unit == nil {
		return l.std.Import(path)
	}
	return unit.Pkg, nil
}

// libUnit returns the canonical library-only unit for path (nil when the
// resolver does not provide it, i.e. the standard library), checking it
// on first use.
func (l *Loader) libUnit(path string) (*Unit, error) {
	if unit, ok := l.pkgs[path]; ok {
		return unit, nil
	}
	dir := l.Resolve(path)
	if dir == "" {
		return nil, nil
	}
	lib, _, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(lib) == 0 {
		return nil, fmt.Errorf("no buildable Go files for %q in %s", path, dir)
	}
	pkg, info, err := l.check(path, lib, nil)
	if err != nil {
		return nil, err
	}
	unit := &Unit{Path: path, Files: lib, Pkg: pkg, Info: info}
	l.pkgs[path] = unit
	return unit, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// check runs the type checker over files as package path. A non-nil
// override importer takes priority over the default resolution; it is
// used to point external _test packages at their package-under-test's
// test variant.
func (l *Loader) check(path string, files []*ast.File, override func(string) (*types.Package, bool)) (*types.Package, *types.Info, error) {
	info := NewTypesInfo()
	var errs []error
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			if override != nil {
				if pkg, ok := override(p); ok {
					return pkg, nil
				}
			}
			return l.importPkg(p)
		}),
		GoVersion: l.GoVersion,
		Error:     func(err error) { errs = append(errs, err) },
	}
	pkg, _ := conf.Check(path, l.Fset, files, info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for _, e := range errs {
			msgs = append(msgs, e.Error())
		}
		return nil, nil, fmt.Errorf("type errors in %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	return pkg, info, nil
}

// LoadForAnalysis parses and type-checks the package at import path
// (which Resolve must map to a directory) and returns its analysis units:
// the primary package — including in-package test files when includeTests
// — plus the external _test package, if any.
func (l *Loader) LoadForAnalysis(path string, includeTests bool) ([]*Unit, error) {
	dir := l.Resolve(path)
	if dir == "" {
		return nil, fmt.Errorf("cannot resolve package %q", path)
	}
	lib, test, xtest, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(lib)+len(test)+len(xtest) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}
	if !includeTests {
		test, xtest = nil, nil
	}
	var units []*Unit
	var primaryPkg *types.Package
	if len(test) == 0 && len(lib) > 0 {
		// No in-package tests: the primary unit IS the canonical library
		// unit — reuse it (and make it canonical if not yet imported) so
		// dependents see the same *types.Package instance.
		unit, err := l.libUnit(path)
		if err != nil {
			return nil, err
		}
		primaryPkg = unit.Pkg
		units = append(units, unit)
	} else if len(lib)+len(test) > 0 {
		// The test-inclusive variant is checked fresh and never cached: it
		// must not leak into the import graph, where the library variant is
		// canonical.
		primary := append(append([]*ast.File(nil), lib...), test...)
		pkg, info, err := l.check(path, primary, nil)
		if err != nil {
			return nil, err
		}
		primaryPkg = pkg
		units = append(units, &Unit{Path: path, Files: primary, Pkg: pkg, Info: info})
	}
	if len(xtest) > 0 {
		override := func(p string) (*types.Package, bool) {
			if p == path && primaryPkg != nil {
				return primaryPkg, true
			}
			return nil, false
		}
		pkg, info, err := l.check(path+"_test", xtest, override)
		if err != nil {
			return nil, err
		}
		units = append(units, &Unit{Path: path + "_test", Files: xtest, Pkg: pkg, Info: info})
	}
	return units, nil
}

// FindPackages walks rootDir and returns the import paths of every
// package directory below it (skipping testdata, vendor, and hidden
// directories), mapped under modulePath.
func FindPackages(modulePath, rootDir string) ([]string, error) {
	seen := make(map[string]bool)
	err := filepath.Walk(rootDir, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			name := info.Name()
			if p != rootDir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		dir := filepath.Dir(p)
		rel, err := filepath.Rel(rootDir, dir)
		if err != nil {
			return err
		}
		var path string
		if rel == "." {
			path = modulePath
		} else {
			path = modulePath + "/" + filepath.ToSlash(rel)
		}
		seen[path] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(seen))
	for path := range seen {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths, nil
}
