package checks

import (
	"sort"
	"testing"
)

// TestSuiteWellFormed: unique names, a Doc and a Run for every analyzer,
// sorted by name, and the interprocedural analyzers present.
func TestSuiteWellFormed(t *testing.T) {
	suite := All()
	seen := make(map[string]bool)
	for _, a := range suite {
		if a.Name == "" {
			t.Error("analyzer with empty name in suite")
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("analyzer name %q registered twice", a.Name)
		}
		seen[a.Name] = true
	}
	if !sort.SliceIsSorted(suite, func(i, j int) bool { return suite[i].Name < suite[j].Name }) {
		t.Error("suite is not sorted by name; report order would drift")
	}
	for _, name := range []string{"detflow", "lockorder", "hotalloc", "maporder"} {
		if !seen[name] {
			t.Errorf("interprocedural analyzer %q missing from suite", name)
		}
	}
}
