package main

import (
	"bytes"
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"testing"

	"tailguard/internal/fault"
	"tailguard/internal/obs"
)

func TestRunTable2(t *testing.T) {
	if err := run([]string{"-exp", "table2"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunFig3(t *testing.T) {
	if err := run([]string{"-exp", "fig3"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-exp", "bogus"}); err == nil {
		t.Error("unknown experiment succeeded, want error")
	}
	if err := run([]string{"-fidelity", "bogus"}); err == nil {
		t.Error("unknown fidelity succeeded, want error")
	}
	if err := run([]string{"-not-a-flag"}); err == nil {
		t.Error("unknown flag succeeded, want error")
	}
}

func TestRunFaultsCanonical(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-faults", "canonical", "-fault-out", dir, "-queries", "600"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	tables, err := filepath.Glob(filepath.Join(dir, "faults_p*_s1.txt"))
	if err != nil || len(tables) != 1 {
		t.Fatalf("fault table artifact: %v (err %v)", tables, err)
	}
	miss, _ := filepath.Glob(filepath.Join(dir, "fault_misscause_p*_s1.txt"))
	if len(miss) != 1 {
		t.Fatalf("miss-cause artifact: %v", miss)
	}
	traces, _ := filepath.Glob(filepath.Join(dir, "trace_fault_*_s1.json"))
	if len(traces) != 4 {
		t.Fatalf("expected 4 fault traces, got %v", traces)
	}
	for _, path := range traces {
		validateFile(t, path, obs.ValidateChromeTrace)
	}
}

// TestRunObs runs the instrumented sweep end to end and validates every
// artifact it writes: one Chrome trace and one Prometheus exposition per
// policy.
func TestRunObs(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-obs", dir, "-queries", "1500"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, p := range []string{"TailGuard", "FIFO", "PRIQ", "T-EDFQ"} {
		validateFile(t, filepath.Join(dir, "trace_"+p+"_s1.json"), obs.ValidateChromeTrace)
		validateFile(t, filepath.Join(dir, "metrics_"+p+"_s1.prom"), obs.ValidateProm)
	}
}

// TestRunFlashcrowdControl runs the flash-crowd pack through the CLI with
// -control: every scenario must get an uncontrolled row and a controlled
// row, and the controlled row must report the control plane's decisions.
func TestRunFlashcrowdControl(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-exp", "flashcrowd", "-control", "-queries", "800", "-csv", dir}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "flashcrowd.csv"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatalf("flashcrowd.csv: %v", err)
	}
	variants := map[string]int{}
	for _, row := range rows[1:] {
		variants[row[1]]++
		// scale_min: "-" when no controller ran.
		if scale := row[10]; (row[1] == "controlled") == (scale == "-") {
			t.Errorf("%s %s: scale_min = %q", row[0], row[1], scale)
		}
	}
	if variants["uncontrolled"] != 3 || variants["controlled"] != 3 {
		t.Errorf("variant rows = %v, want 3 uncontrolled and 3 controlled", variants)
	}
}

func validateFile(t *testing.T, path string, validate func(io.Reader) error) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := validate(f); err != nil {
		t.Errorf("%s: %v", path, err)
	}
}

func TestRunFaultsPlanFile(t *testing.T) {
	dir := t.TempDir()
	plan := &fault.Plan{Name: "ci-slow", Seed: 3, Faults: []fault.Fault{
		{Kind: fault.Slowdown, Server: 0, StartMs: 0, EndMs: 1e9, Factor: 8},
	}}
	data, err := plan.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	path := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("writing plan: %v", err)
	}
	out := filepath.Join(dir, "out")
	if err := run([]string{"-faults", path, "-fault-out", out, "-queries", "600"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	// A single-plan sweep's artifacts carry that plan's own hash.
	want := filepath.Join(out, "faults_p"+plan.Hash()+"_s1.txt")
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("artifact %s: %v", want, err)
	}

	if err := run([]string{"-faults", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing plan file succeeded, want error")
	}
}

func TestRunQueriesOverride(t *testing.T) {
	// A tiny fig4 via the CLI path: exercises the override plumbing.
	if err := run([]string{"-exp", "fig4", "-queries", "3000", "-workloads", "masstree"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}
