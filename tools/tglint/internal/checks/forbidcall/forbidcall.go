// Package forbidcall enforces TailGuard's "no forbidden calls here"
// contracts from one table. Each rule names the packages it governs, the
// references into time or math/rand it forbids there, and the message
// that explains why:
//
//   - simclock: no wall clock in the virtual-time packages. The
//     simulator's headline results (Figs. 4-7) depend on every event
//     timestamp flowing from the discrete-event clock; one stray
//     time.Now() couples experiment output to the host machine. Real
//     time is allowed only in the SaS testbed (internal/saas), the
//     production embedding (internal/sched), and the binaries/examples.
//   - obsclock: no wall-clock reads inside internal/obs. obs events carry
//     caller-supplied timestamps; a sink that stamps them would mix clock
//     domains.
//   - faultdet: no wall clock and no math/rand at all — seeded generators
//     included — inside internal/fault. Identical (plan, seed) pairs must
//     replay bit-identical fault decisions; drop decisions come from a
//     counter-keyed SplitMix64 stream, which replays under any goroutine
//     interleaving, while a *rand.Rand's draw order depends on who asks
//     first.
//   - seededrand: no package-level math/rand function that draws from the
//     process-global source, anywhere in the module. Every draw must flow
//     through an injected *rand.Rand so a (seed, config) pair fully
//     determines the output.
//
// Test files are governed too: a deterministic package deserves
// deterministic tests.
package forbidcall

import (
	"go/ast"
	"go/types"
	"strings"

	"tailguard/tools/tglint/internal/lint"
)

// rule is one row of the table.
type rule struct {
	// pkgs are the governed package paths (subpackages included, after
	// test-variant normalization); nil governs every package.
	pkgs []string
	// forbids reports whether a reference to obj breaks the rule.
	forbids func(obj types.Object) bool
	// msg formats a finding from the referenced object's package path and
	// name and the governed package's path, in that order.
	msg string
}

// virtualTimePackages run on the discrete-event clock.
var virtualTimePackages = []string{
	"tailguard/internal/sim",
	"tailguard/internal/cluster",
	"tailguard/internal/control",
	"tailguard/internal/core",
	"tailguard/internal/dist",
	"tailguard/internal/workload",
	"tailguard/internal/analytic",
	"tailguard/internal/policy",
	"tailguard/internal/request",
	"tailguard/internal/experiment",
	"tailguard/internal/trace",
	"tailguard/internal/metrics",
}

// clockAndTimers are the time functions that read the wall clock or arm
// wall-clock timers. Pure value constructors and arithmetic
// (time.Duration, time.Unix, d.Seconds(), ...) stay legal.
var clockAndTimers = []string{"Now", "Since", "Until", "Sleep", "Tick", "After", "AfterFunc", "NewTimer", "NewTicker"}

var rules = []rule{
	{ // simclock
		pkgs:    virtualTimePackages,
		forbids: timeFunc(clockAndTimers...),
		msg:     "wall-clock call %[1]s.%[2]s in virtual-time package %[3]s: simulation code must take time from the event clock (DESIGN.md, Static analysis)",
	},
	{ // obsclock
		pkgs:    []string{"tailguard/internal/obs"},
		forbids: timeFunc("Now", "Since", "Until"),
		msg:     "wall-clock call %[1]s.%[2]s inside %[3]s: obs records caller-supplied timestamps and must not read a clock (DESIGN.md, Observability)",
	},
	{ // faultdet, clock half
		pkgs:    []string{"tailguard/internal/fault"},
		forbids: timeFunc(clockAndTimers...),
		msg:     "wall-clock call %[1]s.%[2]s inside %[3]s: fault windows live on the caller's sim/ms clock (DESIGN.md, Fault model)",
	},
	{ // faultdet, randomness half: every math/rand object, methods and types too
		pkgs:    []string{"tailguard/internal/fault"},
		forbids: func(obj types.Object) bool { return isRand(obj.Pkg().Path()) },
		msg:     "%[1]s.%[2]s inside %[3]s: fault randomness must come from the counter-keyed SplitMix64 stream, not a rand source (DESIGN.md, Fault model)",
	},
	{ // seededrand
		forbids: globalRand,
		msg:     "%[1]s.%[2]s draws from the process-global random source; thread a seeded *rand.Rand through instead (rand.New(rand.NewSource(seed)))",
	},
}

// timeFunc forbids the time functions (methods included) with the given
// names.
func timeFunc(names ...string) func(types.Object) bool {
	return func(obj types.Object) bool {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg().Path() != "time" {
			return false
		}
		for _, n := range names {
			if fn.Name() == n {
				return true
			}
		}
		return false
	}
}

func isRand(path string) bool { return path == "math/rand" || path == "math/rand/v2" }

// seededConstructors are the package-level math/rand functions that do
// NOT touch the global source.
var seededConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// globalRand forbids the package-level math/rand functions other than
// the seeded constructors; methods on *rand.Rand / Source are fine.
func globalRand(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || !isRand(fn.Pkg().Path()) || seededConstructors[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return !ok || sig.Recv() == nil
}

// Analyzer implements the check.
var Analyzer = &lint.Analyzer{
	Name: "forbidcall",
	Doc:  "forbid wall-clock and math/rand references where a determinism contract bans them (virtual-time packages, internal/obs, internal/fault, the global rand source)",
	Run:  run,
}

// governs reports whether a rule over pkgs applies to pkgPath.
func governs(pkgs []string, pkgPath string) bool {
	if pkgs == nil {
		return true
	}
	for _, p := range pkgs {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

func run(pass *lint.Pass) error {
	pkg := pass.PkgPath()
	var active []rule
	for _, r := range rules {
		if governs(r.pkgs, pkg) {
			active = append(active, r)
		}
	}
	pass.Preorder(func(n ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil {
			return
		}
		for _, r := range active {
			if r.forbids(obj) {
				pass.Reportf(sel.Pos(), r.msg, obj.Pkg().Path(), obj.Name(), pkg)
			}
		}
	})
	return nil
}
