package forbidcall_test

import (
	"testing"

	"tailguard/tools/tglint/internal/checks/forbidcall"
	"tailguard/tools/tglint/internal/lint/linttest"
)

// TestForbidcall runs every rule over every fixture package: sim, cluster
// and metrics are virtual-time (metrics also shows the fault rule silent
// outside internal/fault), obs and fault have their own rules, workload
// uses math/rand, and saas and sched are real-time packages where no rule
// applies.
func TestForbidcall(t *testing.T) {
	for _, pkg := range []string{"sim", "cluster", "metrics", "obs", "fault", "workload", "saas", "sched"} {
		t.Run(pkg, func(t *testing.T) {
			linttest.Run(t, ".", forbidcall.Analyzer, "tailguard/internal/"+pkg)
		})
	}
}
