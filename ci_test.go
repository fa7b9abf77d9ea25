package tailguard

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestCIMatchesMake pins the Makefile's promise that `make ci` is exactly
// what the GitHub workflow runs: the workflow's run steps, in order, must
// be the recipes of the ci target's prerequisites, in order (a target's
// recipe preceded by those of the file targets it depends on, such as the
// linter binary).
func TestCIMatchesMake(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	targets := parseMakefile(string(mk))
	ci, ok := targets["ci"]
	if !ok || len(ci.prereqs) == 0 {
		t.Fatal("Makefile has no ci target with prerequisites")
	}
	var fromMake []string
	for _, gate := range ci.prereqs {
		fromMake = append(fromMake, normalizeCommand(strings.Join(recipeOf(targets, gate), "\n")))
	}
	fromCI := workflowRuns(string(yml))
	if len(fromCI) != len(fromMake) {
		t.Errorf("workflow has %d run steps, make ci has %d gates %v", len(fromCI), len(fromMake), ci.prereqs)
	}
	for i := 0; i < len(fromCI) && i < len(fromMake); i++ {
		if fromCI[i] != fromMake[i] {
			t.Errorf("step %d: workflow runs\n\t%s\nmake %s runs\n\t%s", i+1, fromCI[i], ci.prereqs[i], fromMake[i])
		}
	}
}

type makeTarget struct {
	prereqs []string
	recipe  []string
}

var makeVarRe = regexp.MustCompile(`^([A-Za-z_]+)\s*[?:]?=\s*(.*)$`)

// parseMakefile reads variable assignments and rules (recipes with
// backslash continuations joined), expanding $(VAR) references.
func parseMakefile(src string) map[string]*makeTarget {
	vars := map[string]string{}
	expand := func(s string) string {
		for name, v := range vars {
			s = strings.ReplaceAll(s, "$("+name+")", v)
		}
		return s
	}
	src = strings.ReplaceAll(src, "\\\n", " ")
	targets := map[string]*makeTarget{}
	var cur *makeTarget
	for _, line := range strings.Split(src, "\n") {
		switch {
		case strings.HasPrefix(line, "\t"):
			if cur != nil {
				cur.recipe = append(cur.recipe, expand(strings.TrimSpace(line)))
			}
		case strings.HasPrefix(line, "#") || strings.TrimSpace(line) == "":
		case makeVarRe.MatchString(line):
			m := makeVarRe.FindStringSubmatch(line)
			vars[m[1]] = m[2]
			cur = nil
		case strings.Contains(line, ":"):
			name, deps, _ := strings.Cut(expand(line), ":")
			cur = &makeTarget{prereqs: strings.Fields(deps)}
			targets[strings.TrimSpace(name)] = cur
		default:
			cur = nil
		}
	}
	return targets
}

// recipeOf returns the commands make runs for name: the recipes of its
// prerequisites that are targets, then its own.
func recipeOf(targets map[string]*makeTarget, name string) []string {
	tg, ok := targets[name]
	if !ok {
		return nil
	}
	var cmds []string
	for _, p := range tg.prereqs {
		cmds = append(cmds, recipeOf(targets, p)...)
	}
	return append(cmds, tg.recipe...)
}

// workflowRuns returns the text of each run step of a workflow, one-line
// (run: cmd) and block (run: |) forms alike.
func workflowRuns(src string) []string {
	var runs []string
	lines := strings.Split(src, "\n")
	for i := 0; i < len(lines); i++ {
		trimmed := strings.TrimSpace(lines[i])
		if !strings.HasPrefix(trimmed, "run:") {
			continue
		}
		cmd := strings.TrimSpace(strings.TrimPrefix(trimmed, "run:"))
		if cmd != "|" {
			runs = append(runs, normalizeCommand(cmd))
			continue
		}
		indent := len(lines[i]) - len(strings.TrimLeft(lines[i], " "))
		var block []string
		for i+1 < len(lines) {
			next := lines[i+1]
			if strings.TrimSpace(next) != "" && len(next)-len(strings.TrimLeft(next, " ")) <= indent {
				break
			}
			block = append(block, next)
			i++
		}
		runs = append(runs, normalizeCommand(strings.Join(block, "\n")))
	}
	return runs
}

// normalizeCommand maps a Make recipe and a shell block to one form: make's
// $$ escapes and @ echo suppression dropped, ; and newlines as command
// separators, runs of blanks collapsed.
func normalizeCommand(s string) string {
	s = strings.ReplaceAll(s, "$$", "$")
	var words []string
	for _, line := range strings.Split(strings.ReplaceAll(s, ";", "\n"), "\n") {
		line = strings.TrimPrefix(strings.TrimSpace(line), "@")
		words = append(words, strings.Fields(line)...)
	}
	return strings.Join(words, " ")
}
