package report

import (
	"go/token"
	"testing"
)

func TestNewRelativizesAndSlashes(t *testing.T) {
	pos := token.Position{Filename: "/repo/internal/x/y.go", Line: 3, Column: 7}
	f := New("detflow", pos, "msg", "/repo")
	if f.File != "internal/x/y.go" {
		t.Fatalf("File = %q, want module-relative slash path", f.File)
	}
	out := New("detflow", token.Position{Filename: "/elsewhere/z.go", Line: 1}, "msg", "/repo")
	if out.File != "/elsewhere/z.go" {
		t.Fatalf("File = %q, want absolute path kept for out-of-module files", out.File)
	}
}

func TestSortIsTotalAndStable(t *testing.T) {
	fs := []Finding{
		{Analyzer: "b", File: "a.go", Line: 2},
		{Analyzer: "a", File: "a.go", Line: 2},
		{Analyzer: "z", File: "a.go", Line: 1},
	}
	Sort(fs)
	if fs[0].Analyzer != "z" || fs[1].Analyzer != "a" || fs[2].Analyzer != "b" {
		t.Fatalf("Sort order wrong: %+v", fs)
	}
}
