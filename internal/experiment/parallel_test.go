package experiment

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tailguard/internal/core"
	"tailguard/internal/dist"
	"tailguard/internal/parallel"
	"tailguard/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/generators/*.golden with current output")

// goldenFid is deliberately tiny: every generator below runs twice (once
// sequential, once on 8 workers), and only the bit-identity of the
// outputs matters, not the quality of the numbers.
var goldenFid = Fidelity{Queries: 1200, Warmup: 120, MinSamples: 10, LoadTol: 0.1, Seed: 1}

// renderGolden is a table's full golden form: the text rendering, the
// CSV, and every Raw value at full precision (keys sorted), so a change
// below the printed digits still shows.
func renderGolden(t *Table) string {
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("\n")
	b.WriteString(t.CSV())
	b.WriteString("\nraw:\n")
	for i, raw := range t.Raw {
		keys := make([]string, 0, len(raw))
		for k := range raw {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "%d:", i)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, strconv.FormatFloat(raw[k], 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestGeneratorsParallelGolden pins every experiment generator byte for
// byte: the sequential (Workers=1) and pooled (Workers=8) runs must both
// reproduce testdata/generators/<name>.golden — the determinism contract
// of DESIGN.md §8 plus a guard that a refactor of the search or the
// simulator cannot drift a reproduced figure. Regenerate with -update
// only for a change meant to move the numbers. The max-load grids carry
// two SLO rows so rows that share probes are exercised.
func TestGeneratorsParallelGolden(t *testing.T) {
	wl := []string{"masstree"}
	slos := map[string][]float64{"masstree": {1.0, 1.4}}
	gens := []struct {
		name string
		run  func(Fidelity) (*Table, error)
	}{
		{"fig4", func(f Fidelity) (*Table, error) { return Fig4(f, wl, slos) }},
		{"fig4r", func(f Fidelity) (*Table, error) { return Fig4Replicated(f, wl, slos, 2) }},
		{"table3", func(f Fidelity) (*Table, error) { return Table3(f, []float64{1.0, 1.4}) }},
		{"fig5", func(f Fidelity) (*Table, error) { return Fig5(f, []float64{1.0, 1.4}, []ArrivalKind{Poisson}) }},
		{"fig6", func(f Fidelity) (*Table, error) { return Fig6(f, wl, []float64{0.30}) }},
		{"fig7", func(f Fidelity) (*Table, error) { return Fig7(f, []float64{0.5}) }},
		{"ablation-queues", func(f Fidelity) (*Table, error) { return AblationQueues(f, 0.30) }},
		{"ablation-hetero", func(f Fidelity) (*Table, error) { return AblationHeterogeneity(f, 0.30) }},
		{"ablation-admission", func(f Fidelity) (*Table, error) { return AblationAdmissionWindow(f, 0.65, []float64{30, 100}) }},
		{"ablation-dispatch", func(f Fidelity) (*Table, error) { return AblationDispatch(f, 0.30, 0.05) }},
		{"nscale", func(f Fidelity) (*Table, error) { return NScale(f, 1.0) }},
		{"request", func(f Fidelity) (*Table, error) { return RequestExperiment(f, 3.0) }},
		{"ext-surge", func(f Fidelity) (*Table, error) { return ExtSurge(f, 0, 0) }},
		{"ext-failure", func(f Fidelity) (*Table, error) { return ExtFailure(f, 0) }},
	}
	for _, g := range gens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			path := filepath.Join("testdata", "generators", g.name+".golden")
			seq, par := goldenFid, goldenFid
			seq.Workers = 1
			par.Workers = 8
			ts, err := g.run(seq)
			if err != nil {
				t.Fatalf("sequential run: %v", err)
			}
			got := renderGolden(ts)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create it): %v", err)
			}
			if got != string(want) {
				t.Errorf("workers=1 output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
			tp, err := g.run(par)
			if err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			if gotPar := renderGolden(tp); gotPar != string(want) {
				t.Errorf("workers=8 output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, gotPar, want)
			}
		})
	}
}

func TestReplicatedScenarioMaxLoadParallelGolden(t *testing.T) {
	w := dist.MustTailbenchWorkload("masstree")
	fan, _ := workload.NewInverseProportional(PaperFanouts)
	classes, _ := workload.SingleClass(1.0)
	s := Scenario{
		Workload: w, Servers: 100, Spec: core.TFEDFQ, Fanout: fan,
		Classes: classes, Load: 0.3, Fidelity: goldenFid,
	}
	s.Fidelity.Workers = 1
	seq, err := ReplicatedScenarioMaxLoad(s, DefaultMaxLoadBounds, 3)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	s.Fidelity.Workers = 8
	par, err := ReplicatedScenarioMaxLoad(s, DefaultMaxLoadBounds, 3)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("replicated result diverges:\nworkers=1: %+v\nworkers=8: %+v", seq, par)
	}
}

// TestSpeculativeMaxLoadMatchesSequential checks that speculative bisection
// returns the exact float MaxLoad returns, for any pure probe, across pool
// widths, boundaries, and tolerances.
func TestSpeculativeMaxLoadMatchesSequential(t *testing.T) {
	bounds := MaxLoadBounds{Lo: 0.05, Hi: 0.95}
	for _, boundary := range []float64{0.04, 0.13, 0.42, 0.77, 0.96} {
		probe := func(load float64) (bool, error) { return load <= boundary, nil }
		for _, tol := range []float64{0.1, 0.01, 0.003} {
			want, err := MaxLoad(bounds, tol, probe)
			if err != nil {
				t.Fatalf("MaxLoad(boundary=%v tol=%v): %v", boundary, tol, err)
			}
			for _, workers := range []int{1, 2, 3, 4, 8, 16} {
				got, err := SpeculativeMaxLoad(parallel.NewPool(workers), bounds, tol, probe)
				if err != nil {
					t.Fatalf("SpeculativeMaxLoad(workers=%d): %v", workers, err)
				}
				if got != want {
					t.Errorf("boundary=%v tol=%v workers=%d: speculative=%v sequential=%v",
						boundary, tol, workers, got, want)
				}
			}
		}
	}
}

func TestSpeculativeMaxLoadPropagatesErrors(t *testing.T) {
	wantErr := errors.New("probe failed")
	probe := func(load float64) (bool, error) {
		if load > 0.4 {
			return false, wantErr
		}
		return true, nil
	}
	// The error sits on the resolved bisection path, so it must surface
	// no matter how many probes ran speculatively.
	for _, workers := range []int{1, 4, 8} {
		_, err := SpeculativeMaxLoad(parallel.NewPool(workers), MaxLoadBounds{Lo: 0.05, Hi: 0.95}, 0.01, probe)
		if !errors.Is(err, wantErr) {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, wantErr)
		}
	}
	if _, err := SpeculativeMaxLoad(parallel.NewPool(8), MaxLoadBounds{Lo: 0.9, Hi: 0.1}, 0.01, probe); err == nil {
		t.Error("inverted bounds succeeded, want error")
	}
	if _, err := SpeculativeMaxLoad(parallel.NewPool(8), MaxLoadBounds{Lo: 0.05, Hi: 0.95}, 0, probe); err == nil {
		t.Error("zero tolerance succeeded, want error")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	r := summarize(nil)
	if r.Mean != 0 || r.StdDev != 0 || r.Values != nil {
		t.Errorf("summarize(nil) = %+v, want zero value (not NaN)", r)
	}
}
