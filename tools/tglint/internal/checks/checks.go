// Package checks registers the tglint analyzer suite.
package checks

import (
	"tailguard/tools/tglint/internal/checks/detflow"
	"tailguard/tools/tglint/internal/checks/errreturn"
	"tailguard/tools/tglint/internal/checks/floateq"
	"tailguard/tools/tglint/internal/checks/forbidcall"
	"tailguard/tools/tglint/internal/checks/guardedby"
	"tailguard/tools/tglint/internal/checks/hotalloc"
	"tailguard/tools/tglint/internal/checks/lockorder"
	"tailguard/tools/tglint/internal/checks/maporder"
	"tailguard/tools/tglint/internal/checks/poolzero"
	"tailguard/tools/tglint/internal/lint"
)

// All returns every analyzer in the suite, sorted by name so reports are
// stable across runs. Add new analyzers here.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		detflow.Analyzer,
		errreturn.Analyzer,
		floateq.Analyzer,
		forbidcall.Analyzer,
		guardedby.Analyzer,
		hotalloc.Analyzer,
		lockorder.Analyzer,
		maporder.Analyzer,
		poolzero.Analyzer,
	}
}
