package experiment

import (
	"errors"
	"math"
	"strings"
	"testing"

	"tailguard/internal/cluster"
	"tailguard/internal/core"
	"tailguard/internal/dist"
	"tailguard/internal/workload"
)

// micro is a minimal fidelity for unit tests: enough to exercise every
// code path, far too small for publication numbers.
var micro = Fidelity{Queries: 4000, Warmup: 400, MinSamples: 30, LoadTol: 0.05, Seed: 1}

func TestFidelityValidate(t *testing.T) {
	cases := []Fidelity{
		{Queries: 0, Warmup: 0, MinSamples: 1, LoadTol: 0.01},
		{Queries: 10, Warmup: 10, MinSamples: 1, LoadTol: 0.01},
		{Queries: 10, Warmup: -1, MinSamples: 1, LoadTol: 0.01},
		{Queries: 10, Warmup: 0, MinSamples: 0, LoadTol: 0.01},
		{Queries: 10, Warmup: 0, MinSamples: 1, LoadTol: 0},
		{Queries: 10, Warmup: 0, MinSamples: 1, LoadTol: 0.6},
	}
	for i, f := range cases {
		if err := f.validate(); err == nil {
			t.Errorf("case %d: validate succeeded, want error", i)
		}
	}
	if err := Quick.validate(); err != nil {
		t.Errorf("Quick invalid: %v", err)
	}
	if err := Full.validate(); err != nil {
		t.Errorf("Full invalid: %v", err)
	}
}

func TestFidelityScaled(t *testing.T) {
	f := Fidelity{Queries: 1000, Warmup: 100, MinSamples: 10, LoadTol: 0.01}
	g := f.scaled(0.25)
	if g.Queries != 250 || g.Warmup != 25 {
		t.Errorf("scaled = %+v, want 250/25", g)
	}
	tiny := f.scaled(0.00001)
	if tiny.Queries < 1 || tiny.Warmup >= tiny.Queries {
		t.Errorf("scaled to tiny produced invalid %+v", tiny)
	}
}

func TestTableString(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "long_column"},
		Rows:    [][]string{{"1", "2"}, {"333333", "4"}},
	}
	s := tbl.String()
	if !strings.Contains(s, "== x: demo ==") {
		t.Errorf("missing header in %q", s)
	}
	if !strings.Contains(s, "long_column") {
		t.Errorf("missing column in %q", s)
	}
	// Header + column row + 2 data rows.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Errorf("got %d lines, want 4", len(lines))
	}
}

func TestMaxLoadSyntheticProbe(t *testing.T) {
	// True boundary at 0.42.
	probe := func(load float64) (bool, error) { return load <= 0.42, nil }
	got, err := MaxLoad(MaxLoadBounds{Lo: 0.05, Hi: 0.95}, 0.005, probe)
	if err != nil {
		t.Fatalf("MaxLoad: %v", err)
	}
	if math.Abs(got-0.42) > 0.006 {
		t.Errorf("MaxLoad = %v, want ~0.42", got)
	}
	// Lo fails -> 0.
	got, err = MaxLoad(MaxLoadBounds{Lo: 0.5, Hi: 0.9}, 0.01, probe)
	if err != nil {
		t.Fatalf("MaxLoad: %v", err)
	}
	if got != 0 {
		t.Errorf("MaxLoad with failing Lo = %v, want 0", got)
	}
	// Hi passes -> Hi.
	got, err = MaxLoad(MaxLoadBounds{Lo: 0.05, Hi: 0.3}, 0.01, probe)
	if err != nil {
		t.Fatalf("MaxLoad: %v", err)
	}
	if got != 0.3 {
		t.Errorf("MaxLoad with passing Hi = %v, want 0.3", got)
	}
	// Errors propagate.
	wantErr := errors.New("boom")
	if _, err := MaxLoad(DefaultMaxLoadBounds, 0.01, func(float64) (bool, error) { return false, wantErr }); !errors.Is(err, wantErr) {
		t.Errorf("error not propagated: %v", err)
	}
	if _, err := MaxLoad(DefaultMaxLoadBounds, 0, probe); err == nil {
		t.Error("zero tolerance succeeded, want error")
	}
	if _, err := MaxLoad(MaxLoadBounds{Lo: 0.9, Hi: 0.1}, 0.01, probe); err == nil {
		t.Error("inverted bounds succeeded, want error")
	}
}

func TestScenarioValidation(t *testing.T) {
	w := dist.MustTailbenchWorkload("masstree")
	fan, _ := workload.NewFixed(10)
	classes, _ := workload.SingleClass(1)
	good := Scenario{
		Workload: w, Servers: 100, Spec: core.FIFO, Fanout: fan,
		Classes: classes, Load: 0.3, Fidelity: micro,
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"nil workload", func(s *Scenario) { s.Workload = nil }},
		{"no servers", func(s *Scenario) { s.Servers = 0 }},
		{"nil fanout", func(s *Scenario) { s.Fanout = nil }},
		{"nil classes", func(s *Scenario) { s.Classes = nil }},
		{"bad load", func(s *Scenario) { s.Load = 0 }},
		{"bad arrival", func(s *Scenario) { s.Arrival = "weird" }},
		{"bad admission", func(s *Scenario) { s.AdmissionWindowMs = 10; s.AdmissionThreshold = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := good
			tc.mutate(&s)
			if _, err := s.Build(); err == nil {
				t.Error("Build succeeded, want error")
			}
		})
	}
	if _, err := good.Build(); err != nil {
		t.Errorf("good scenario failed to build: %v", err)
	}
}

func TestScenarioRunSmoke(t *testing.T) {
	w := dist.MustTailbenchWorkload("masstree")
	fan, _ := workload.NewInverseProportional(PaperFanouts)
	classes, _ := workload.SingleClass(1.4)
	for _, arrival := range []ArrivalKind{Poisson, Pareto} {
		s := Scenario{
			Workload: w, Servers: 100, Spec: core.TFEDFQ, Fanout: fan,
			Classes: classes, Arrival: arrival, Load: 0.3, Fidelity: micro,
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("%s: Run: %v", arrival, err)
		}
		if res.Completed != micro.Queries {
			t.Errorf("%s: completed %d, want %d", arrival, res.Completed, micro.Queries)
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	tbl, err := Table2()
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("Table2 has %d rows, want 3", len(tbl.Rows))
	}
	// Paper values (masstree row is Raw[0] because names sort first).
	want := map[string][4]float64{
		"masstree": {0.176, 0.219, 0.247, 0.473},
		"shore":    {0.341, 2.095, 2.721, 2.829},
		"xapian":   {0.925, 2.590, 2.998, 3.308},
	}
	for i, name := range dist.TailbenchNames() {
		raw := tbl.Raw[i]
		w := want[name]
		if math.Abs(raw["Tm"]-w[0])/w[0] > 1e-6 {
			t.Errorf("%s Tm = %v, want %v", name, raw["Tm"], w[0])
		}
		for j, k := range []int{1, 10, 100} {
			key := []string{"x99(1)", "x99(10)", "x99(100)"}[j]
			if math.Abs(raw[key]-w[j+1])/w[j+1] > 1e-6 {
				t.Errorf("%s x99(%d) = %v, want %v", name, k, raw[key], w[j+1])
			}
		}
	}
}

func TestFig3Monotone(t *testing.T) {
	tbl, err := Fig3()
	if err != nil {
		t.Fatalf("Fig3: %v", err)
	}
	for _, name := range dist.TailbenchNames() {
		prev := -1.0
		for _, raw := range tbl.Raw {
			if raw[name] < prev {
				t.Errorf("%s quantiles not monotone", name)
			}
			prev = raw[name]
		}
	}
}

func TestFig4MicroTailGuardAtLeastFIFO(t *testing.T) {
	tbl, err := Fig4(micro, []string{"masstree"}, map[string][]float64{"masstree": {1.0}})
	if err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("Fig4 rows = %d, want 2", len(tbl.Rows))
	}
	tg, fifo := tbl.Raw[0]["max_load"], tbl.Raw[1]["max_load"]
	if tg+2*micro.LoadTol < fifo {
		t.Errorf("TailGuard max load %v below FIFO %v", tg, fifo)
	}
	if fifo <= 0 {
		t.Errorf("FIFO max load = %v, want positive", fifo)
	}
}

// TestSingleClassPRIQAndTEDFQAreFIFO pins Fig4's reason for comparing
// TailGuard with FIFO alone: with one class, PRIQ has one priority level
// and T-EDFQ's deadline t0 + SLO rises with arrival order, so both serve
// every queue in FIFO order. Their runs are bit-identical to FIFO's at
// every load; only T-EDFQ's task miss ratio, which FIFO's infinite
// deadlines keep at zero, differs.
func TestSingleClassPRIQAndTEDFQAreFIFO(t *testing.T) {
	rows, err := singleClassRows("masstree", []float64{1.0}, []core.Spec{core.FIFO, core.PRIQ, core.TEDFQ}, micro)
	if err != nil {
		t.Fatalf("singleClassRows: %v", err)
	}
	var missed bool
	for _, load := range []float64{0.3, 0.6, 0.9} {
		var fifo *cluster.Result
		for _, s := range rows {
			s.Load = load
			res, err := s.Run()
			if err != nil {
				t.Fatalf("%s load %v: Run: %v", s.Spec.Name, load, err)
			}
			if fifo == nil {
				fifo = res
				continue
			}
			missed = missed || res.TaskMissRatio > 0
			res.Spec, res.TaskMissRatio = fifo.Spec, fifo.TaskMissRatio
			if err := fifo.Equal(res); err != nil {
				t.Errorf("%s load %v differs from FIFO: %v", s.Spec.Name, load, err)
			}
		}
	}
	if !missed {
		t.Error("no T-EDFQ run missed a deadline; the loads do not reach the queueing the test is about")
	}
}

func TestTable3Micro(t *testing.T) {
	tbl, err := Table3(micro, []float64{1.0})
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("Table3 rows = %d, want 2 (FIFO, TailGuard)", len(tbl.Rows))
	}
	for _, raw := range tbl.Raw {
		// At the max load the binding type (k=100) must sit near its SLO.
		if raw["p99_k100"] <= 0 {
			t.Errorf("p99_k100 = %v, want positive", raw["p99_k100"])
		}
		if raw["max_load"] <= 0 {
			t.Errorf("max_load = %v, want positive", raw["max_load"])
		}
	}
}

func TestFig5Micro(t *testing.T) {
	tbl, err := Fig5(micro, []float64{1.0}, []ArrivalKind{Poisson})
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("Fig5 rows = %d, want 4 policies", len(tbl.Rows))
	}
}

func TestFig6Micro(t *testing.T) {
	tbl, err := Fig6(micro, []string{"masstree"}, []float64{0.30, 0.50})
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("Fig6 rows = %d, want 3 policies x 2 loads", len(tbl.Rows))
	}
	// Latency grows with load for each policy.
	for i := 0; i < 6; i += 2 {
		lo, hi := tbl.Raw[i], tbl.Raw[i+1]
		if hi["p99_classI"] < lo["p99_classI"] {
			t.Errorf("row %d: p99 fell from %v to %v as load rose", i, lo["p99_classI"], hi["p99_classI"])
		}
	}
}

func TestFig7Micro(t *testing.T) {
	tbl, err := Fig7(micro, []float64{0.70})
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	raw := tbl.Raw[0]
	if raw["accepted"] > raw["offered"] {
		t.Errorf("accepted %v above offered %v", raw["accepted"], raw["offered"])
	}
	if raw["rejected"] <= 0 {
		t.Errorf("rejected = %v at 70%% offered, want positive", raw["rejected"])
	}
}

func TestClassSetForPaper(t *testing.T) {
	cs, err := classSetForPaper(1.0, 4, 2.0)
	if err != nil {
		t.Fatalf("classSetForPaper: %v", err)
	}
	if cs.Len() != 4 {
		t.Fatalf("Len = %d, want 4", cs.Len())
	}
	first, _ := cs.Class(0)
	last, _ := cs.Class(3)
	if first.SLOMs != 1.0 || math.Abs(last.SLOMs-2.0) > 1e-12 {
		t.Errorf("SLO endpoints = %v..%v, want 1..2", first.SLOMs, last.SLOMs)
	}
	if _, err := classSetForPaper(1, 0, 2); err == nil {
		t.Error("0 classes succeeded, want error")
	}
}

func TestAblationQueuesMicro(t *testing.T) {
	tbl, err := AblationQueues(micro, 0.3)
	if err != nil {
		t.Fatalf("AblationQueues: %v", err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
}

func TestAblationHeterogeneityMicro(t *testing.T) {
	tbl, err := AblationHeterogeneity(micro, 0.3)
	if err != nil {
		t.Fatalf("AblationHeterogeneity: %v", err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tbl.Rows))
	}
}

func TestAblationAdmissionWindowMicro(t *testing.T) {
	// Windows must be well below the micro run's ~270 ms span, or the
	// control loop cannot recover within the run.
	tbl, err := AblationAdmissionWindow(micro, 0.65, []float64{20, 80})
	if err != nil {
		t.Fatalf("AblationAdmissionWindow: %v", err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tbl.Rows))
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", `x,"y`}, {"2", "plain"}},
	}
	got := tbl.CSV()
	want := "a,b\n1,\"x,\"\"y\"\n2,plain\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestReplicatedScenarioMaxLoad(t *testing.T) {
	w := dist.MustTailbenchWorkload("masstree")
	fan, _ := workload.NewInverseProportional(PaperFanouts)
	classes, _ := workload.SingleClass(1.0)
	s := Scenario{
		Workload: w, Servers: 100, Spec: core.TFEDFQ, Fanout: fan,
		Classes: classes, Load: 0.3, Fidelity: micro,
	}
	rep, err := ReplicatedScenarioMaxLoad(s, DefaultMaxLoadBounds, 3)
	if err != nil {
		t.Fatalf("ReplicatedScenarioMaxLoad: %v", err)
	}
	if len(rep.Values) != 3 {
		t.Fatalf("got %d replicates", len(rep.Values))
	}
	if rep.Mean <= 0 || rep.Mean > 1 {
		t.Errorf("mean = %v", rep.Mean)
	}
	if rep.StdDev < 0 {
		t.Errorf("stddev = %v", rep.StdDev)
	}
	if _, err := ReplicatedScenarioMaxLoad(s, DefaultMaxLoadBounds, 1); err == nil {
		t.Error("1 replicate succeeded, want error")
	}
}

func TestAblationDispatchMicro(t *testing.T) {
	tbl, err := AblationDispatch(micro, 0.3, 0.05)
	if err != nil {
		t.Fatalf("AblationDispatch: %v", err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tbl.Rows))
	}
	// Per-server queuing folds the dispatch leg into the measured wait.
	if tbl.Raw[1]["mean_wait"] <= tbl.Raw[0]["mean_wait"] {
		t.Errorf("per-server mean wait %v not above central %v",
			tbl.Raw[1]["mean_wait"], tbl.Raw[0]["mean_wait"])
	}
}

func TestExtFailureMicro(t *testing.T) {
	tbl, err := ExtFailure(micro, 0.4)
	if err != nil {
		t.Fatalf("ExtFailure: %v", err)
	}
	if len(tbl.Rows) != 10 {
		t.Fatalf("rows = %d, want 2 admission modes x 5 intervals", len(tbl.Rows))
	}
	// The failure interval (index 2) must show a far worse tail than the
	// first interval in the no-admission run.
	if tbl.Raw[2]["p99_ms"] < 5*tbl.Raw[0]["p99_ms"] {
		t.Errorf("failure interval p99 %v not clearly above baseline %v",
			tbl.Raw[2]["p99_ms"], tbl.Raw[0]["p99_ms"])
	}
	// With admission on, the post-failure interval sheds load.
	if tbl.Raw[8]["accepted_frac"] >= 0.95 {
		t.Errorf("post-failure accepted fraction = %v, want rejection", tbl.Raw[8]["accepted_frac"])
	}
}

func TestExtSurgeMicro(t *testing.T) {
	// Larger-than-micro run: the surge needs enough queries per interval.
	fid := Fidelity{Queries: 40000, Warmup: 1000, MinSamples: 50, LoadTol: 0.05, Seed: 2}
	tbl, err := ExtSurge(fid, 0.40, 0.5)
	if err != nil {
		t.Fatalf("ExtSurge: %v", err)
	}
	if len(tbl.Rows) != 16 {
		t.Fatalf("rows = %d, want 2 modes x 8 intervals", len(tbl.Rows))
	}
	// With admission on, the peak intervals (2-4 of 8, sin > 0) must shed
	// some load.
	var minFrac float64 = 1
	for b := 8; b < 16; b++ {
		if f := tbl.Raw[b]["accepted_frac"]; f < minFrac {
			minFrac = f
		}
	}
	if minFrac >= 0.999 {
		t.Errorf("admission never rejected during the surge (min accepted frac %v)", minFrac)
	}
}

func TestRequestExperimentMicro(t *testing.T) {
	tbl, err := RequestExperiment(micro, 3.0)
	if err != nil {
		t.Fatalf("RequestExperiment: %v", err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d, want 2 policies x 3 strategies", len(tbl.Rows))
	}
}
