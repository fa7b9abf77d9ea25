package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateControlGolden = flag.Bool("update-control-golden", false, "rewrite the control-smoke golden with current output")

var controlTestFidelity = Fidelity{Queries: 1200, Warmup: 100, MinSamples: 5, LoadTol: 0.1, Seed: 1}

func TestControlSweepShape(t *testing.T) {
	runs, err := ControlSweep(ControlConfig{Fidelity: controlTestFidelity})
	if err != nil {
		t.Fatalf("ControlSweep: %v", err)
	}
	if len(runs) != 2*len(ControlScenarios) {
		t.Fatalf("got %d runs, want %d", len(runs), 2*len(ControlScenarios))
	}
	for i, run := range runs {
		wantScenario := ControlScenarios[i/2]
		wantVariant := Uncontrolled
		if i%2 == 1 {
			wantVariant = Controlled
		}
		if run.Scenario != wantScenario || run.Variant != wantVariant {
			t.Errorf("run %d = %s/%s, want %s/%s", i, run.Scenario, run.Variant, wantScenario, wantVariant)
		}
		if (run.Variant == Controlled) != (run.Ctl != nil) {
			t.Errorf("run %d (%s): controller presence does not match variant", i, run.Variant)
		}
		if (run.Variant == Controlled) != (run.Registry != nil) {
			t.Errorf("run %d (%s): registry presence does not match variant", i, run.Variant)
		}
		if run.Report == nil {
			t.Errorf("run %d: missing attribution report", i)
		}
	}
}

// TestControlHoldsSLO pins the pack's headline claim on the flash-sale
// scenario: the uncontrolled run collapses during the crowd (most
// queries in the peak window blow the SLO) while the controlled run's
// loops — shed, throttle, backpressure, autoscale — hold the windowed
// miss ratio near the admission target Rth.
func TestControlHoldsSLO(t *testing.T) {
	runs, err := ControlSweep(ControlConfig{Fidelity: controlTestFidelity, Scenarios: []string{"flashsale"}})
	if err != nil {
		t.Fatalf("ControlSweep: %v", err)
	}
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(runs))
	}
	un, ctl := runs[0], runs[1]
	unPeak, ctlPeak := un.PeakWindowMiss(10), ctl.PeakWindowMiss(10)
	if unPeak < 0.5 {
		t.Errorf("uncontrolled peak-window miss = %.3f, want a collapse (>= 0.5)", unPeak)
	}
	if ctlPeak >= unPeak/2 {
		t.Errorf("controlled peak-window miss %.3f not well below uncontrolled %.3f", ctlPeak, unPeak)
	}
	// Overall violation rate should sit near Rth = 0.05, not at the
	// uncontrolled collapse level.
	if v := ctl.Violations(); v > 0.10 {
		t.Errorf("controlled violation rate %.3f, want near Rth 0.05 (<= 0.10)", v)
	}
	if v, uv := ctl.Violations(), un.Violations(); v >= uv/2 {
		t.Errorf("controlled violation rate %.3f not well below uncontrolled %.3f", v, uv)
	}
	// Every loop must have actuated: admission scale shed, the generator
	// hit the credit gate, the class bucket throttled, and the autoscaler
	// both shrank the quiet phase and added servers under the crowd.
	res := ctl.Result
	if res.Throttled == 0 {
		t.Error("controlled run throttled nothing")
	}
	if res.CreditDeferred == 0 {
		t.Error("controlled run never hit the credit gate")
	}
	if res.ControlTicks == 0 {
		t.Error("controller never ticked")
	}
	d := ctl.Ctl.Decisions()
	if len(d) == 0 {
		t.Fatal("no decisions recorded")
	}
	sMin, adds, aMin := 1.0, 0, ctl.Ctl.Config().MaxServers
	for _, dec := range d {
		if dec.Scale < sMin {
			sMin = dec.Scale
		}
		if dec.Added >= 0 {
			adds++
		}
		if dec.Active < aMin {
			aMin = dec.Active
		}
	}
	if sMin >= 1 {
		t.Error("admission scale never shed")
	}
	if adds == 0 {
		t.Error("autoscaler never added a server under the crowd")
	}
	if aMin >= controlActive {
		t.Errorf("autoscaler never scaled down below the initial %d active", controlActive)
	}
	// The registry carries the closed-loop readings for export.
	var sb strings.Builder
	if err := ctl.Registry.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, name := range []string{
		"tg_sim_admission_threshold_scale",
		"tg_sim_control_credits",
		"tg_sim_control_active_servers",
	} {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("registry missing %s", name)
		}
	}
}

// TestControlSweepDeterministic runs the sweep twice at the same seed and
// requires bit-identical results and decision traces — the control loops
// must be driven purely by the simulated clock and seeded randomness.
func TestControlSweepDeterministic(t *testing.T) {
	cfg := ControlConfig{Fidelity: controlTestFidelity, Scenarios: []string{"flashsale"}}
	a, err := ControlSweep(cfg)
	if err != nil {
		t.Fatalf("sweep A: %v", err)
	}
	b, err := ControlSweep(cfg)
	if err != nil {
		t.Fatalf("sweep B: %v", err)
	}
	for i := range a {
		if err := a[i].Result.Equal(b[i].Result); err != nil {
			t.Errorf("run %d (%s/%s) diverges: %v", i, a[i].Scenario, a[i].Variant, err)
		}
		if a[i].Ctl == nil {
			continue
		}
		da, db := a[i].Ctl.Decisions(), b[i].Ctl.Decisions()
		if len(da) != len(db) {
			t.Fatalf("run %d: %d decisions vs %d", i, len(da), len(db))
		}
		for j := range da {
			if da[j] != db[j] {
				t.Fatalf("run %d decision %d diverges: %+v vs %+v", i, j, da[j], db[j])
			}
		}
	}
	if ta, tb := ControlTable(a).String(), ControlTable(b).String(); ta != tb {
		t.Errorf("rendered tables differ:\n--- A ---\n%s\n--- B ---\n%s", ta, tb)
	}
}

// TestControlSmokeGolden is the control plane's determinism gate: the
// full sweep's rendered table must be byte-identical to the committed
// golden. Any nondeterminism in the controller, the credit gate, the
// arrival curves, or the cluster wiring shows up as a diff here.
// Regenerate with -update-control-golden after intentional changes.
func TestControlSmokeGolden(t *testing.T) {
	runs, err := ControlSweep(ControlConfig{Fidelity: controlTestFidelity})
	if err != nil {
		t.Fatalf("ControlSweep: %v", err)
	}
	got := ControlTable(runs).String() + "\n"
	path := filepath.Join("testdata", "control_smoke_golden.txt")
	if *updateControlGolden {
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
		t.Fatalf("reading golden (run with -update-control-golden to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("control sweep output diverged from golden %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
