package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json, the statement of this benchmark
// the driver reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesBenchmarkFile holds the program's metric and workload
// tables and BENCHMARK.json equal, both ways and in order.
func TestSpecMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bf.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q outside the allowed characters", w.name)
		}
	}
	seen := make(map[string]bool)
	check := func(kind string, file []benchmarkMetric, prog []metricSpec, bounded bool) {
		if len(file) != len(prog) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(prog))
		}
		for i, m := range prog {
			f := file[i]
			if f.Name != m.name || f.Unit != m.unit || f.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, f, m)
			}
			if !nameRE.MatchString(m.name) {
				t.Errorf("metric name %q outside the allowed characters", m.name)
			}
			if seen[m.name] {
				t.Errorf("metric name %q used twice", m.name)
			}
			seen[m.name] = true
			switch {
			case bounded && (f.Bound == nil || *f.Bound != m.bound || m.bound <= 0 || m.bound > 0.25):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the program; want equal and in (0, 0.25]", kind, m.name, f.Bound, m.bound)
			case !bounded && (f.Bound != nil || m.bound != 0):
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("end_to_end must include setup_s")
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at tiny scale,
// untraced and traced, and checks the result carries exactly the metrics
// BENCHMARK.json promises for that mode, finite and with their units.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + "/untraced"
			want := endToEnd
			if trace {
				name, want = w.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				e := &env{seed: 7, seconds: 0.4, trace: trace, tiny: true, outDir: dir, nproc: 2, gomaxprocs: 2}
				res, hdr, err := runWorkload(e, &w)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Errorf("outputs not correct")
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				if hdr.Nproc == 0 || hdr.Gomaxprocs == 0 || hdr.Go == "" || hdr.Workload != w.name {
					t.Errorf("header incomplete: %+v", hdr)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					switch {
					case !ok:
						t.Errorf("%s missing", m.name)
					case got.Unit != m.unit:
						t.Errorf("%s has unit %q, want %q", m.name, got.Unit, m.unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s = %v", m.name, got.Value)
					case !trace && got.Value == 0:
						t.Errorf("%s is 0; an end-to-end metric never is", m.name)
					}
				}
				if trace {
					if _, err := os.Stat(dir + "/" + w.name + ".trace.json"); err != nil {
						t.Errorf("no trace file: %v", err)
					}
				}
			})
		}
	}
}

// TestCompare checks the verdicts of -compare on synthetic run sets.
func TestCompare(t *testing.T) {
	lower := metricSpec{name: "x", unit: "ms", better: "lower", bound: 0.10}
	higher := metricSpec{name: "y", unit: "1/s", better: "higher", bound: 0.10}
	steadyA := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name  string
		m     metricSpec
		a, b  []float64
		label string
	}{
		{"same", lower, steadyA, steadyA, "within bound"},
		{"lower-is-better worse", lower, steadyA, scale(steadyA, 1.2), "regressed"},
		{"lower-is-better better", lower, steadyA, scale(steadyA, 0.8), "within bound"},
		{"higher-is-better worse", higher, steadyA, scale(steadyA, 0.8), "regressed"},
		{"noisy", lower, []float64{100, 140, 70, 120, 90, 150, 60, 100, 130, 80}, steadyA, "unresolved (spread 55.0% wider than bound)"},
		{"single runs", lower, []float64{100}, []float64{105}, "within bound (one run a side: spread unknown)"},
	} {
		if _, label := verdict(c.m, c.a, c.b); label != c.label {
			t.Errorf("%s: verdict %q, want %q", c.name, label, c.label)
		}
	}
	// The quartiles are Python's statistics.quantiles(v, n=4): for 1..10
	// they are 2.75, 5.5, 8.25.
	if s, ok := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !ok || math.Abs(s-1) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, %v; want 1 (5.5/5.5)", s, ok)
	}
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}
