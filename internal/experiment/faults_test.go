package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tailguard/internal/core"
	"tailguard/internal/fault"
)

var updateFaultGolden = flag.Bool("update-fault-golden", false, "rewrite the fault-smoke golden with current output")

var faultTestFidelity = Fidelity{Queries: 1500, Warmup: 100, MinSamples: 10, LoadTol: 0.02, Seed: 1}

func TestFaultClassesShape(t *testing.T) {
	classes := FaultClasses(10000, 7)
	names := make([]string, 0, len(classes))
	for _, c := range classes {
		names = append(names, c.Name)
		if c.Plan == nil {
			continue
		}
		if err := c.Plan.Validate(100); err != nil {
			t.Errorf("class %s invalid: %v", c.Name, err)
		}
		if c.Plan.Seed != 7 {
			t.Errorf("class %s seed = %d, want 7", c.Name, c.Plan.Seed)
		}
	}
	want := "baseline,slowdown-10x,stall,crash,transport-drop"
	if got := strings.Join(names, ","); got != want {
		t.Errorf("classes = %s, want %s", got, want)
	}
	if classes[0].Plan.Hash() != "00000000" {
		t.Errorf("baseline hash = %s, want 00000000", classes[0].Plan.Hash())
	}
}

func TestFaultSweepShapeAndCounters(t *testing.T) {
	runs, err := FaultSweep(FaultConfig{Fidelity: faultTestFidelity})
	if err != nil {
		t.Fatalf("FaultSweep: %v", err)
	}
	specs := core.Specs()
	wantRows := 5 * (len(specs) + 1)
	if len(runs) != wantRows {
		t.Fatalf("got %d runs, want %d", len(runs), wantRows)
	}
	// Row order: per fault class, the plain specs then the resilient
	// TF-EDFQ variant.
	for i, run := range runs {
		v := i % (len(specs) + 1)
		if v < len(specs) {
			if run.Spec.Name != specs[v].Name || run.Resil.Enabled() {
				t.Errorf("run %d = %s/%s, want plain %s", i, run.Spec.Name, run.Resil.Label(), specs[v].Name)
			}
		} else if run.Spec.Name != core.TFEDFQ.Name || !run.Resil.Enabled() {
			t.Errorf("run %d = %s/%s, want resilient TF-EDFQ", i, run.Spec.Name, run.Resil.Label())
		}
	}
	byKey := map[string]*FaultRun{}
	for _, run := range runs {
		byKey[run.Class+"/"+run.Spec.Name+"/"+run.Resil.Label()] = run
	}
	// The baseline injects nothing, so nothing is lost or hedged on the
	// plain rows, and its hash is the nil-plan sentinel.
	base := byKey["baseline/"+core.TFEDFQ.Name+"/none"]
	if base == nil {
		t.Fatal("missing baseline TF-EDFQ run")
	}
	if base.Hash != "00000000" || base.Result.LostTasks != 0 || base.Result.Failed != 0 {
		t.Errorf("baseline run: hash=%s lost=%d failed=%d", base.Hash, base.Result.LostTasks, base.Result.Failed)
	}
	// The crash class must lose tasks on unprotected runs and absorb them
	// on the resilient one.
	crash := byKey["crash/"+core.TFEDFQ.Name+"/none"]
	if crash == nil || crash.Result.LostTasks == 0 {
		t.Error("crash class lost no tasks on the unprotected run")
	}
	resil := byKey["crash/"+core.TFEDFQ.Name+"/"+fault.Resilience{Hedge: true, RetryBudget: 2, DegradedAdmission: true}.Label()]
	if resil == nil {
		t.Fatal("missing resilient crash run")
	}
	if resil.Result.Retries == 0 {
		t.Error("resilient crash run spent no retries")
	}
	if resil.Result.Failed >= crash.Result.Failed && crash.Result.Failed > 0 {
		t.Errorf("resilient crash failed %d >= unprotected %d", resil.Result.Failed, crash.Result.Failed)
	}
}

// TestFaultSweepHedgingMitigatesSlowdown is the sweep-level acceptance
// check: under the 10x slowdown straggler, the mitigated TF-EDFQ run must
// beat the un-mitigated one on overall p99.
func TestFaultSweepHedgingMitigatesSlowdown(t *testing.T) {
	runs, err := FaultSweep(FaultConfig{Fidelity: faultTestFidelity})
	if err != nil {
		t.Fatalf("FaultSweep: %v", err)
	}
	var plain, resil *FaultRun
	for _, run := range runs {
		if run.Class != "slowdown-10x" || run.Spec.Name != core.TFEDFQ.Name {
			continue
		}
		if run.Resil.Enabled() {
			resil = run
		} else {
			plain = run
		}
	}
	if plain == nil || resil == nil {
		t.Fatal("missing slowdown-10x TF-EDFQ runs")
	}
	if resil.Result.HedgesIssued == 0 {
		t.Fatal("resilient slowdown run issued no hedges")
	}
	pp, err := plain.Result.Overall.P99()
	if err != nil {
		t.Fatalf("P99(plain): %v", err)
	}
	rp, err := resil.Result.Overall.P99()
	if err != nil {
		t.Fatalf("P99(resilient): %v", err)
	}
	if rp >= pp {
		t.Errorf("mitigated p99 %v not better than un-mitigated %v", rp, pp)
	}
	if resil.Violations() > plain.Violations() {
		t.Errorf("mitigated violation rate %v above un-mitigated %v", resil.Violations(), plain.Violations())
	}
	t.Logf("slowdown-10x p99: plain %.3f ms, resilient %.3f ms (%d hedges, %d wins)",
		pp, rp, resil.Result.HedgesIssued, resil.Result.HedgeWins)
}

// TestFaultSmokeGolden is the fault engine's determinism gate: a tiny
// seeded sweep whose rendered tables (headline comparison + miss-cause
// breakdown) must be byte-identical to the committed golden. Any
// nondeterminism in the fault engine, the resilience paths, or the table
// rendering shows up as a diff here. Regenerate with -update-fault-golden
// after intentional changes.
func TestFaultSmokeGolden(t *testing.T) {
	fid := Fidelity{Queries: 800, Warmup: 80, MinSamples: 5, LoadTol: 0.1, Seed: 1}
	runs, err := FaultSweep(FaultConfig{Fidelity: fid})
	if err != nil {
		t.Fatalf("FaultSweep: %v", err)
	}
	got := FaultTable(runs).String() + "\n" + FaultMissTable(runs).String() + "\n"
	path := filepath.Join("testdata", "fault_smoke_golden.txt")
	if *updateFaultGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatalf("creating testdata: %v", err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update-fault-golden to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("fault sweep output diverged from golden %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestFaultSweepDeterministic pins the acceptance criterion that an
// identical seed and plan reproduce a bit-identical sweep, including the
// rendered tables.
func TestFaultSweepDeterministic(t *testing.T) {
	render := func() (string, string) {
		runs, err := FaultSweep(FaultConfig{Fidelity: faultTestFidelity})
		if err != nil {
			t.Fatalf("FaultSweep: %v", err)
		}
		return FaultTable(runs).String(), FaultMissTable(runs).String()
	}
	a1, b1 := render()
	a2, b2 := render()
	if a1 != a2 {
		t.Error("FaultTable output differs between identical sweeps")
	}
	if b1 != b2 {
		t.Error("FaultMissTable output differs between identical sweeps")
	}
	if !strings.Contains(a1, "transport-drop") || !strings.Contains(a1, "hedge+retry2+degrade") {
		t.Errorf("FaultTable missing expected rows:\n%s", a1)
	}
}
