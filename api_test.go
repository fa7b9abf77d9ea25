package tailguard

// Exercises the public facade end to end: everything a downstream user
// touches must be reachable through the root package alone.

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"testing"
	"time"
)

func TestFacadePolicies(t *testing.T) {
	if len(Specs()) != 4 {
		t.Fatalf("Specs() = %d entries, want 4", len(Specs()))
	}
	s, err := SpecByName("tailguard")
	if err != nil {
		t.Fatalf("SpecByName: %v", err)
	}
	if s != TFEDFQ {
		t.Errorf("SpecByName(tailguard) = %+v", s)
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Error("SpecByName(nope) succeeded, want error")
	}
}

func TestFacadeDeadlineMath(t *testing.T) {
	w, err := TailbenchWorkload("masstree")
	if err != nil {
		t.Fatalf("TailbenchWorkload: %v", err)
	}
	est, err := NewHomogeneousStaticTailEstimator(w.ServiceTime, 100)
	if err != nil {
		t.Fatalf("NewHomogeneousStaticTailEstimator: %v", err)
	}
	classes, err := TwoClasses(1.0, 1.5)
	if err != nil {
		t.Fatalf("TwoClasses: %v", err)
	}
	dl, err := NewDeadliner(TFEDFQ, est, classes)
	if err != nil {
		t.Fatalf("NewDeadliner: %v", err)
	}
	b, err := dl.Budget(0, 100)
	if err != nil {
		t.Fatalf("Budget: %v", err)
	}
	if math.Abs(b-0.527) > 1e-9 {
		t.Errorf("budget = %v, want the paper's 0.527 ms", b)
	}
	v, err := SLOViolationProbability(0.01, 100)
	if err != nil || math.Abs(v-0.634) > 0.001 {
		t.Errorf("SLOViolationProbability = %v/%v", v, err)
	}
}

func TestFacadeSimulation(t *testing.T) {
	w, _ := TailbenchWorkload("masstree")
	fan, err := NewInverseProportional([]int{1, 10, 100})
	if err != nil {
		t.Fatalf("NewInverseProportional: %v", err)
	}
	classes, _ := SingleClass(1.4)
	s := Scenario{
		Workload: w, Servers: 100, Spec: TFEDFQ, Fanout: fan,
		Classes: classes, Load: 0.30,
		Fidelity: Fidelity{Queries: 5000, Warmup: 500, MinSamples: 50, LoadTol: 0.02, Seed: 1},
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Scenario.Run: %v", err)
	}
	if res.Completed != 5000 {
		t.Errorf("Completed = %d", res.Completed)
	}
	ok, margin, err := res.MeetsSLOs(classes, 50)
	if err != nil {
		t.Fatalf("MeetsSLOs: %v", err)
	}
	if !ok {
		t.Errorf("generous SLO violated (margin %v)", margin)
	}
	// Per-fanout access through the facade alias.
	var buckets int
	res.ByFanout.Each(func(k int, rec *LatencyRecorder) { buckets++ })
	if buckets != 3 {
		t.Errorf("fanout buckets = %d, want 3", buckets)
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	w, _ := TailbenchWorkload("shore")
	arr, err := NewPoisson(1)
	if err != nil {
		t.Fatalf("NewPoisson: %v", err)
	}
	fan, _ := NewFixedFanout(5)
	classes, _ := SingleClass(10)
	gen, err := NewGenerator(GeneratorConfig{Servers: 20, Arrival: arr, Fanout: fan, Classes: classes}, 1)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	recs, err := GenerateTrace(gen, []Distribution{w.ServiceTime}, 20, 100, 2)
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	var buf bytes.Buffer
	if err := SaveTrace(&buf, recs); err != nil {
		t.Fatalf("SaveTrace: %v", err)
	}
	back, err := LoadTrace(&buf)
	if err != nil {
		t.Fatalf("LoadTrace: %v", err)
	}
	stats, err := SummarizeTrace(back)
	if err != nil {
		t.Fatalf("SummarizeTrace: %v", err)
	}
	if stats.Queries != 100 || stats.Tasks != 500 {
		t.Errorf("trace stats = %+v", stats)
	}
	rep, err := NewReplayer(back)
	if err != nil {
		t.Fatalf("NewReplayer: %v", err)
	}
	est, _ := NewHomogeneousStaticTailEstimator(w.ServiceTime, 20)
	dl, _ := NewDeadliner(TFEDFQ, est, classes)
	res, err := RunCluster(ClusterConfig{
		Servers: 20, Spec: TFEDFQ, ServiceTimes: []Distribution{w.ServiceTime},
		Generator: rep, Classes: classes, Deadliner: dl, Queries: 100,
	})
	if err != nil {
		t.Fatalf("RunCluster over trace: %v", err)
	}
	if res.Completed != 100 {
		t.Errorf("replayed Completed = %d", res.Completed)
	}
}

func TestFacadeRequests(t *testing.T) {
	w, _ := TailbenchWorkload("masstree")
	if got := len(BudgetStrategies()); got != 3 {
		t.Fatalf("BudgetStrategies() = %d, want 3", got)
	}
	res, err := RunRequests(RequestRunConfig{
		Plan:          RequestPlan{Fanouts: []int{1, 10}, SLOMs: 3, Percentile: 0.99},
		Servers:       50,
		Spec:          TFEDFQ,
		Service:       w.ServiceTime,
		Strategy:      BudgetStrategies()[0],
		Load:          0.3,
		Requests:      1000,
		Warmup:        100,
		Seed:          1,
		BudgetSamples: 20000,
	})
	if err != nil {
		t.Fatalf("RunRequests: %v", err)
	}
	if !res.MeetsSLO {
		t.Errorf("request SLO violated at light load: tail %v", res.TailMs)
	}
	x, err := UnloadedRequestQuantile(w.ServiceTime, []int{1, 10}, 0.99, 50000, 1)
	if err != nil {
		t.Fatalf("UnloadedRequestQuantile: %v", err)
	}
	if math.Abs(x-res.XpRu)/res.XpRu > 0.1 {
		t.Errorf("facade UnloadedRequestQuantile = %v, run reported %v", x, res.XpRu)
	}
}

func TestFacadeTestbedPieces(t *testing.T) {
	// Exercise the testbed surface without a full run (covered in
	// internal/saas tests): calibration models and class sets.
	d, err := ClusterDelayModel("wet-lab", 10)
	if err != nil {
		t.Fatalf("ClusterDelayModel: %v", err)
	}
	if math.Abs(d.Mean()-3.1) > 0.01 {
		t.Errorf("compressed wet-lab mean = %v, want 3.1", d.Mean())
	}
	classes, err := SaSClasses(10)
	if err != nil {
		t.Fatalf("SaSClasses: %v", err)
	}
	if classes.Len() != 3 {
		t.Errorf("SaS classes = %d, want 3", classes.Len())
	}
	// A small live run through the facade: 32 HTTP edge nodes on
	// loopback, three classes, every post-warm-up query accounted for.
	// Wall-clock tails are left to internal/saas's tests.
	if testing.Short() {
		t.Skip("live testbed run in -short mode")
	}
	stores, err := BuildStores(24 * time.Hour)
	if err != nil {
		t.Fatalf("BuildStores: %v", err)
	}
	res, err := RunTestbed(TestbedConfig{
		Spec: TFEDFQ, Load: 0.3, Queries: 60, Warmup: 10, Compression: 10,
		Seed: 1, EstimatorSeedSamples: 500, SharedStores: stores,
	})
	if err != nil {
		t.Fatalf("RunTestbed: %v", err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("task errors: %v", res.Errors)
	}
	var n int
	for _, c := range res.ByClass {
		n += c.Count
	}
	if n != 50 {
		t.Errorf("measured queries = %d, want 50", n)
	}
}

// TestFacadeWalkthroughCoverage pins that every root identifier the API
// walkthroughs teach is still exercised by an Example or by a facade test
// in this file.
func TestFacadeWalkthroughCoverage(t *testing.T) {
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range []string{"api_test.go", "example_test.go"} {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				used[id.Name] = true
			}
			return true
		})
	}
	for _, name := range []string{
		"Breakpoint", "BuildStores", "Class", "FIFO", "Fidelity",
		"LatencyRecorder", "MaxLoad", "MaxLoadBounds", "NewClassSet",
		"NewDeadliner", "NewECDF", "NewFixedFanout",
		"NewHomogeneousStaticTailEstimator", "NewInverseProportional",
		"NewQuantileTable", "NewScheduler", "NewZipfFanout", "PRIQ",
		"RunTestbed", "SLOViolationProbability", "Scenario",
		"ScenarioMaxLoad", "SchedulerConfig", "SchedulerTask", "SingleClass",
		"Spec", "TFEDFQ", "TailbenchWorkload", "TestbedConfig", "TwoClasses",
	} {
		if !used[name] {
			t.Errorf("%s is referenced by no Example and no facade test", name)
		}
	}
}
