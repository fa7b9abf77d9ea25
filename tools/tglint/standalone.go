package main

// The driver: `tglint ./...` (or `tglint` with no arguments) walks the
// module containing the working directory, type-checks every package
// from source — the standard library included, via $GOROOT/src, so it
// works without a module proxy or build cache — and runs the analyzer
// suite. It analyzes test files too (in-package and external test
// packages); each analyzer's own filters decide what applies there.
// Before a package's diagnostics run, its module dependencies get a
// facts-only pass (lint.Session), so the interprocedural analyzers
// (detflow, lockorder) see across package boundaries.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"tailguard/tools/tglint/internal/checks"
	"tailguard/tools/tglint/internal/lint"
	"tailguard/tools/tglint/internal/report"
)

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory, module path, and Go language version.
func findModule(dir string) (root, modPath, goVersion string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(data)
			if m == nil {
				return "", "", "", fmt.Errorf("no module directive in %s/go.mod", dir)
			}
			goVersion := ""
			if g := regexp.MustCompile(`(?m)^go\s+(\S+)`).FindSubmatch(data); g != nil {
				goVersion = "go" + string(g[1])
			}
			return dir, string(m[1]), goVersion, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// runStandalone lints the requested packages, writes findings and errors
// to stderr, and returns the exit code. Supported patterns: "./..."
// (everything), "./dir/..." (subtree), and plain package directories.
func runStandalone(args []string, stderr io.Writer) int {
	for _, arg := range args {
		if strings.HasPrefix(arg, "-") {
			fmt.Fprintf(stderr, "tglint: unknown flag %s\n", arg)
			return 2
		}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "tglint: %v\n", err)
		return 2
	}
	root, modPath, goVersion, err := findModule(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "tglint: %v\n", err)
		return 2
	}
	all, err := lint.FindPackages(modPath, root)
	if err != nil {
		fmt.Fprintf(stderr, "tglint: %v\n", err)
		return 2
	}

	paths, err := selectPackages(all, args, cwd, root, modPath)
	if err != nil {
		fmt.Fprintf(stderr, "tglint: %v\n", err)
		return 2
	}

	loader := lint.NewLoader(lint.ModuleResolver(modPath, root), goVersion)
	inModule := func(p string) bool {
		return p == modPath || strings.HasPrefix(p, modPath+"/")
	}
	session := lint.NewSession(loader, checks.All(), inModule)

	var findings []report.Finding
	for _, path := range paths {
		diags, _, err := session.Analyze(path)
		if err != nil {
			fmt.Fprintf(stderr, "tglint: %v\n", err)
			return 2
		}
		for _, d := range diags {
			findings = append(findings,
				report.New(d.Analyzer.Name, loader.Fset.Position(d.Pos), d.Message, root))
		}
	}
	report.Sort(findings)
	for _, f := range findings {
		fmt.Fprintln(stderr, f)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// selectPackages expands command-line patterns against the module's
// package list. The default pattern "./..." from the module root spans
// the entire module — internal/..., cmd/..., tools/... (the linters lint
// themselves), and the root package alike.
func selectPackages(all, args []string, cwd, root, modPath string) ([]string, error) {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	// Import path prefix of the working directory within the module.
	rel, err := filepath.Rel(root, cwd)
	if err != nil {
		return nil, err
	}
	base := modPath
	if rel != "." {
		base = modPath + "/" + filepath.ToSlash(rel)
	}
	var out []string
	seen := make(map[string]bool)
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, arg := range args {
		switch {
		case arg == "./...":
			prefix := base
			for _, p := range all {
				if p == prefix || strings.HasPrefix(p, prefix+"/") {
					add(p)
				}
			}
		case strings.HasSuffix(arg, "/..."):
			sub := strings.TrimSuffix(arg, "/...")
			prefix := joinImportPath(base, sub)
			for _, p := range all {
				if p == prefix || strings.HasPrefix(p, prefix+"/") {
					add(p)
				}
			}
		default:
			if arg == modPath || strings.HasPrefix(arg, modPath+"/") {
				add(arg) // already a full import path
			} else {
				add(joinImportPath(base, arg))
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no packages match %v", args)
	}
	return out, nil
}

// joinImportPath resolves a relative package argument against the base
// import path.
func joinImportPath(base, arg string) string {
	arg = strings.TrimPrefix(arg, "./")
	arg = strings.TrimSuffix(arg, "/")
	if arg == "" || arg == "." {
		return base
	}
	return base + "/" + arg
}
