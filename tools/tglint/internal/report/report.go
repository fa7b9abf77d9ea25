// Package report renders tglint findings as text: one
// `file:line:col: message [analyzer]` line per finding, file paths
// module-root-relative with forward slashes, sorted so output diffs
// cleanly across machines and runs.
package report

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one diagnostic with a module-relative position.
type Finding struct {
	Analyzer string
	File     string // module-root-relative, forward slashes
	Line     int
	Col      int
	Message  string
}

// New builds a Finding from a resolved position, relativizing the file
// against rootDir when possible.
func New(analyzer string, pos token.Position, message, rootDir string) Finding {
	file := pos.Filename
	if rootDir != "" {
		if rel, err := filepath.Rel(rootDir, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	return Finding{
		Analyzer: analyzer,
		File:     filepath.ToSlash(file),
		Line:     pos.Line,
		Col:      pos.Column,
		Message:  message,
	}
}

// String renders the finding as one report line.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Col, f.Message, f.Analyzer)
}

// Sort orders findings by (file, line, col, analyzer, message).
func Sort(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
