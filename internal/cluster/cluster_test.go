package cluster

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"tailguard/internal/core"
	"tailguard/internal/dist"
	"tailguard/internal/workload"
)

// fixedGap is a deterministic arrival process for exact-latency tests.
type fixedGap struct{ gap float64 }

func (f fixedGap) NextGap(*rand.Rand) float64 { return f.gap }
func (f fixedGap) Rate() float64              { return 1 / f.gap }

// buildConfig assembles a config around the given knobs with sane defaults.
func buildConfig(t *testing.T, spec core.Spec, svc dist.Distribution, servers int,
	arrival workload.ArrivalProcess, fanout workload.FanoutDist, classes *workload.ClassSet,
	queries, warmup int, seed int64) Config {
	t.Helper()
	gen, err := workload.NewGenerator(workload.GeneratorConfig{
		Servers: servers,
		Arrival: arrival,
		Fanout:  fanout,
		Classes: classes,
	}, seed)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	est, err := core.NewHomogeneousStaticTailEstimator(svc, servers)
	if err != nil {
		t.Fatalf("NewHomogeneousStaticTailEstimator: %v", err)
	}
	dl, err := core.NewDeadliner(spec, est, classes)
	if err != nil {
		t.Fatalf("NewDeadliner: %v", err)
	}
	return Config{
		Servers:      servers,
		Spec:         spec,
		ServiceTimes: []dist.Distribution{svc},
		Generator:    gen,
		Classes:      classes,
		Deadliner:    dl,
		Queries:      queries,
		Warmup:       warmup,
		Seed:         seed + 1,
	}
}

func TestValidation(t *testing.T) {
	classes, _ := workload.SingleClass(1)
	svc := dist.Deterministic{V: 1}
	fan, _ := workload.NewFixed(1)
	good := buildConfig(t, core.FIFO, svc, 1, fixedGap{gap: 10}, fan, classes, 10, 0, 1)

	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no servers", func(c *Config) { c.Servers = 0 }},
		{"bad service count", func(c *Config) { c.ServiceTimes = []dist.Distribution{svc, svc, svc} }},
		{"nil service", func(c *Config) { c.ServiceTimes = []dist.Distribution{nil} }},
		{"nil generator", func(c *Config) { c.Generator = nil }},
		{"nil classes", func(c *Config) { c.Classes = nil }},
		{"nil deadliner", func(c *Config) { c.Deadliner = nil }},
		{"no queries", func(c *Config) { c.Queries = 0 }},
		{"warmup too large", func(c *Config) { c.Warmup = 10 }},
		{"negative warmup", func(c *Config) { c.Warmup = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			tc.mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("Run succeeded, want error")
			}
		})
	}
}

// TestSingleServerExactLatencies verifies the M/D/1-style bookkeeping by
// hand: deterministic 1 ms service, arrivals every 0.1 ms, one server.
func TestSingleServerExactLatencies(t *testing.T) {
	classes, _ := workload.SingleClass(100)
	fan, _ := workload.NewFixed(1)
	cfg := buildConfig(t, core.FIFO, dist.Deterministic{V: 1}, 1,
		fixedGap{gap: 0.1}, fan, classes, 3, 0, 1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Arrivals at 0.1, 0.2, 0.3; completions at 1.1, 2.1, 3.1;
	// latencies 1.0, 1.9, 2.8.
	if res.Completed != 3 {
		t.Fatalf("Completed = %d, want 3", res.Completed)
	}
	got := res.Overall.Samples()
	want := []float64{1.0, 1.9, 2.8}
	if len(got) != len(want) {
		t.Fatalf("latencies = %v, want %v", got, want)
	}
	// No quantile was read, so the samples are in completion order, which
	// here is ascending.
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("latency[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Busy 3 ms over duration 3.1 ms, one server.
	if math.Abs(res.Utilization-3.0/3.1) > 1e-9 {
		t.Errorf("Utilization = %v, want %v", res.Utilization, 3.0/3.1)
	}
	if res.Duration != 3.1 {
		t.Errorf("Duration = %v, want 3.1", res.Duration)
	}
}

func TestConservation(t *testing.T) {
	classes, _ := workload.TwoClasses(1, 1.5)
	fan, _ := workload.NewInverseProportional([]int{1, 10, 100})
	arr, _ := workload.NewPoisson(0.5)
	w := dist.MustTailbenchWorkload("masstree")
	for _, spec := range core.Specs() {
		cfg := buildConfig(t, spec, w.ServiceTime, 100, arr, fan, classes, 2000, 100, 7)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: Run: %v", spec.Name, err)
		}
		if res.Queries != 2000 {
			t.Errorf("%s: Queries = %d, want 2000", spec.Name, res.Queries)
		}
		if res.Admitted != 2000 || res.Rejected != 0 {
			t.Errorf("%s: Admitted/Rejected = %d/%d, want 2000/0", spec.Name, res.Admitted, res.Rejected)
		}
		if res.Completed != 2000 {
			t.Errorf("%s: Completed = %d, want 2000", spec.Name, res.Completed)
		}
		if got := res.Overall.Count(); got != 1900 {
			t.Errorf("%s: counted %d post-warmup queries, want 1900", spec.Name, got)
		}
		if res.ByType.Total() != 1900 {
			t.Errorf("%s: ByType total = %d, want 1900", spec.Name, res.ByType.Total())
		}
	}
}

func TestUtilizationTracksOfferedLoad(t *testing.T) {
	const load = 0.4
	w := dist.MustTailbenchWorkload("masstree")
	classes, _ := workload.SingleClass(10)
	fan, _ := workload.NewInverseProportional([]int{1, 10, 100})
	rate, err := workload.RateForLoad(load, 100, fan.MeanTasks(), w.ServiceTime.Mean())
	if err != nil {
		t.Fatalf("RateForLoad: %v", err)
	}
	arr, _ := workload.NewPoisson(rate)
	cfg := buildConfig(t, core.FIFO, w.ServiceTime, 100, arr, fan, classes, 50000, 1000, 3)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if math.Abs(res.Utilization-load)/load > 0.05 {
		t.Errorf("Utilization = %v, want ~%v", res.Utilization, load)
	}
	if math.Abs(res.OfferedLoad-load)/load > 0.05 {
		t.Errorf("OfferedLoad = %v, want ~%v", res.OfferedLoad, load)
	}
	// Work-conserving, under capacity: everything admitted completes.
	if res.Completed != res.Admitted {
		t.Errorf("Completed %d != Admitted %d", res.Completed, res.Admitted)
	}
}

func TestFIFOHasNoDeadlineMisses(t *testing.T) {
	w := dist.MustTailbenchWorkload("masstree")
	classes, _ := workload.SingleClass(1)
	fan, _ := workload.NewFixed(10)
	arr, _ := workload.NewPoisson(0.2)
	cfg := buildConfig(t, core.FIFO, w.ServiceTime, 100, arr, fan, classes, 2000, 0, 5)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.TaskMissRatio != 0 {
		t.Errorf("FIFO TaskMissRatio = %v, want 0 (+Inf deadlines)", res.TaskMissRatio)
	}
}

func TestDeterminism(t *testing.T) {
	w := dist.MustTailbenchWorkload("shore")
	classes, _ := workload.TwoClasses(6, 1.5)
	fan, _ := workload.NewInverseProportional([]int{1, 10, 100})
	run := func() *Result {
		arr, _ := workload.NewPoisson(0.3)
		cfg := buildConfig(t, core.TFEDFQ, w.ServiceTime, 100, arr, fan, classes, 5000, 500, 42)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	pa, _ := a.Overall.P99()
	pb, _ := b.Overall.P99()
	if pa != pb || a.Duration != b.Duration || a.Utilization != b.Utilization {
		t.Errorf("runs diverged: p99 %v/%v duration %v/%v util %v/%v",
			pa, pb, a.Duration, b.Duration, a.Utilization, b.Utilization)
	}
}

// TestTailGuardBeatsFIFOOnHighFanoutTail is the paper's core qualitative
// claim at the micro level: under a mixed-fanout single-class workload at
// moderate load, TailGuard's deadline ordering must not let high-fanout
// queries fare worse than under FIFO.
func TestTailGuardBeatsFIFOOnHighFanoutTail(t *testing.T) {
	w := dist.MustTailbenchWorkload("masstree")
	classes, _ := workload.SingleClass(0.8)
	fanouts := []int{1, 10, 100}
	const load = 0.30
	run := func(spec core.Spec, seed int64) *Result {
		fan, _ := workload.NewInverseProportional(fanouts)
		rate, _ := workload.RateForLoad(load, 100, fan.MeanTasks(), w.ServiceTime.Mean())
		arr, _ := workload.NewPoisson(rate)
		cfg := buildConfig(t, spec, w.ServiceTime, 100, arr, fan, classes, 120000, 5000, seed)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(%s): %v", spec.Name, err)
		}
		return res
	}
	tg := run(core.TFEDFQ, 1)
	ff := run(core.FIFO, 1)
	p99 := func(r *Result, fanout int) float64 {
		rec := r.ByFanout.Recorder(fanout)
		if rec == nil {
			t.Fatalf("no samples for fanout %d", fanout)
		}
		v, err := rec.P99()
		if err != nil {
			t.Fatalf("P99: %v", err)
		}
		return v
	}
	tg100, ff100 := p99(tg, 100), p99(ff, 100)
	if tg100 > ff100*1.05 {
		t.Errorf("TailGuard fanout-100 p99 = %v worse than FIFO %v", tg100, ff100)
	}
	// And TailGuard achieves it by slowing the over-served fanout-1 type.
	tg1, ff1 := p99(tg, 1), p99(ff, 1)
	if tg1 < ff1 {
		t.Logf("note: TailGuard fanout-1 p99 %v < FIFO %v (unexpected but not fatal)", tg1, ff1)
	}
}

func TestAdmissionControlUnderOverload(t *testing.T) {
	w := dist.MustTailbenchWorkload("masstree")
	classes, _ := workload.SingleClass(1.0)
	fan, _ := workload.NewFixed(100)
	rate, _ := workload.RateForLoad(1.2, 100, fan.MeanTasks(), w.ServiceTime.Mean())
	arr, _ := workload.NewPoisson(rate)
	cfg := buildConfig(t, core.TFEDFQ, w.ServiceTime, 100, arr, fan, classes, 4000, 200, 11)
	// Window spans roughly 200 queries at this arrival rate.
	adm, err := core.NewAdmissionController(200/rate, 0.017)
	if err != nil {
		t.Fatalf("NewAdmissionController: %v", err)
	}
	cfg.Admission = adm
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Rejected == 0 {
		t.Error("overload run rejected no queries")
	}
	if res.Admitted+res.Rejected != res.Queries {
		t.Errorf("admitted %d + rejected %d != generated %d", res.Admitted, res.Rejected, res.Queries)
	}
	if res.Utilization > 1.0 {
		t.Errorf("Utilization = %v > 1", res.Utilization)
	}
	// The accepted load must be meaningfully below the offered overload.
	if res.Utilization > res.OfferedLoad {
		t.Errorf("accepted %v above offered %v", res.Utilization, res.OfferedLoad)
	}
}

func TestOnlineEstimatorIntegration(t *testing.T) {
	// Run with an updatable estimator seeded from a deliberately wrong
	// offline model; online updates must pull x99 estimates toward the
	// true service distribution.
	w := dist.MustTailbenchWorkload("masstree")
	wrongSeed, _ := dist.NewExponential(10) // 50x slower than reality
	est, err := core.NewTailEstimator(20, wrongSeed, 1000, 2000)
	if err != nil {
		t.Fatalf("NewTailEstimator: %v", err)
	}
	classes, _ := workload.SingleClass(1)
	dl, err := core.NewDeadliner(core.TFEDFQ, est, classes)
	if err != nil {
		t.Fatalf("NewDeadliner: %v", err)
	}
	// Full fanout: every query observes every server, so each server's
	// online CDF receives one sample per query and the wrong seed decays
	// away within a few thousand queries.
	fan, _ := workload.NewFixed(20)
	arr, _ := workload.NewPoisson(0.5)
	gen, err := workload.NewGenerator(workload.GeneratorConfig{
		Servers: 20, Arrival: arr, Fanout: fan, Classes: classes,
	}, 3)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	before, _ := est.XPuFanout(0.99, 20)
	res, err := Run(Config{
		Servers:      20,
		Spec:         core.TFEDFQ,
		ServiceTimes: []dist.Distribution{w.ServiceTime},
		Generator:    gen,
		Classes:      classes,
		Deadliner:    dl,
		Queries:      30000,
		Warmup:       100,
		Seed:         4,
		Estimator:    est,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Completed != 30000 {
		t.Fatalf("Completed = %d", res.Completed)
	}
	after, err := est.XPuFanout(0.99, 20)
	if err != nil {
		t.Fatalf("XPuFanout: %v", err)
	}
	trueX, _ := dist.HomogeneousQueryQuantile(w.ServiceTime, 20, 0.99)
	if math.Abs(after-trueX) >= math.Abs(before-trueX) {
		t.Errorf("online updating did not improve estimate: before=%v after=%v true=%v", before, after, trueX)
	}
	if math.Abs(after-trueX)/trueX > 0.5 {
		t.Errorf("online estimate %v still far from true %v", after, trueX)
	}
}

func TestHeterogeneousDeadlinesPath(t *testing.T) {
	fast, _ := dist.NewExponential(0.1)
	slow, _ := dist.NewExponential(0.4)
	perServer := []dist.Distribution{fast, slow, fast, slow}
	est, err := core.NewStaticTailEstimator(perServer)
	if err != nil {
		t.Fatalf("NewStaticTailEstimator: %v", err)
	}
	classes, _ := workload.SingleClass(5)
	dl, err := core.NewDeadliner(core.TFEDFQ, est, classes)
	if err != nil {
		t.Fatalf("NewDeadliner: %v", err)
	}
	fan, _ := workload.NewFixed(2)
	arr, _ := workload.NewPoisson(1)
	gen, err := workload.NewGenerator(workload.GeneratorConfig{
		Servers: 4, Arrival: arr, Fanout: fan, Classes: classes,
	}, 5)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	res, err := Run(Config{
		Servers:                4,
		Spec:                   core.TFEDFQ,
		ServiceTimes:           perServer,
		Generator:              gen,
		Classes:                classes,
		Deadliner:              dl,
		Queries:                5000,
		Warmup:                 100,
		Seed:                   6,
		HeterogeneousDeadlines: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Completed != 5000 {
		t.Errorf("Completed = %d, want 5000", res.Completed)
	}
	ok, margin, err := res.MeetsSLOs(classes, 100)
	if err != nil {
		t.Fatalf("MeetsSLOs: %v", err)
	}
	if !ok {
		t.Errorf("generous SLO violated (margin %v)", margin)
	}
}

func TestMeetsSLOs(t *testing.T) {
	w := dist.MustTailbenchWorkload("masstree")
	fan, _ := workload.NewFixed(10)
	arr, _ := workload.NewPoisson(0.5)
	run := func(sloMs float64) (*Result, *workload.ClassSet) {
		classes, _ := workload.SingleClass(sloMs)
		cfg := buildConfig(t, core.TFEDFQ, w.ServiceTime, 100, arr, fan, classes, 5000, 200, 8)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res, classes
	}
	res, classes := run(50) // generous
	ok, margin, err := res.MeetsSLOs(classes, 100)
	if err != nil {
		t.Fatalf("MeetsSLOs: %v", err)
	}
	if !ok || margin > 1 {
		t.Errorf("generous SLO: ok=%v margin=%v, want pass", ok, margin)
	}
	res2, classes2 := run(0.05) // impossible: below even one service time
	ok2, margin2, err := res2.MeetsSLOs(classes2, 100)
	if err != nil {
		t.Fatalf("MeetsSLOs: %v", err)
	}
	if ok2 || margin2 <= 1 {
		t.Errorf("impossible SLO: ok=%v margin=%v, want fail", ok2, margin2)
	}
	if _, _, err := res.MeetsSLOs(nil, 1); err == nil {
		t.Error("MeetsSLOs(nil) succeeded, want error")
	}
}

// TestMeetsSLOsEachMatchesMeetsSLOs: the verdicts MeetsSLOsEach reads off
// one run, reusing a tail across consecutive sets with the same
// percentile, are each set's own MeetsSLOs verdict.
func TestMeetsSLOsEachMatchesMeetsSLOs(t *testing.T) {
	w := dist.MustTailbenchWorkload("masstree")
	fan, _ := workload.NewInverseProportional([]int{1, 10})
	arr, _ := workload.NewPoisson(5)
	base, _ := workload.SingleClass(1)
	res, err := Run(buildConfig(t, core.TFEDFQ, w.ServiceTime, 20, arr, fan, base, 4000, 200, 8))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	_, margin, err := res.MeetsSLOs(base, 50)
	if err != nil {
		t.Fatalf("MeetsSLOs: %v", err)
	}
	tail := margin // the worst type's p99 over a 1 ms SLO
	var sets []*workload.ClassSet
	for _, c := range []struct{ slo, p float64 }{
		{tail * 0.99, 0.99}, {tail * 1.01, 0.99}, {tail * 0.99, 0.5}, {tail * 0.99, 0.5}, {tail * 0.99, 0.99},
	} {
		set, err := workload.NewClassSet([]workload.Class{{ID: 0, SLOMs: c.slo, Percentile: c.p, Weight: 1}})
		if err != nil {
			t.Fatalf("NewClassSet: %v", err)
		}
		sets = append(sets, set)
	}
	ok := make([]bool, len(sets))
	if err := res.MeetsSLOsEach(sets, 50, ok); err != nil {
		t.Fatalf("MeetsSLOsEach: %v", err)
	}
	var passes int
	for k, set := range sets {
		want, _, err := res.MeetsSLOs(set, 50)
		if err != nil {
			t.Fatalf("MeetsSLOs: %v", err)
		}
		if ok[k] != want {
			t.Errorf("set %d: MeetsSLOsEach %v, MeetsSLOs %v", k, ok[k], want)
		}
		if want {
			passes++
		}
	}
	if passes == 0 || passes == len(sets) {
		t.Errorf("%d of %d sets pass; the sets must disagree", passes, len(sets))
	}
	if err := res.MeetsSLOsEach(sets, 50, ok[:1]); err == nil {
		t.Error("MeetsSLOsEach with too few verdict slots succeeded, want an error")
	}
}

// TestMeetsSLOsUnderSampledIsAnError: a run in which no query type
// reached minSamples has checked nothing, so it must not pass — a max-load
// search reading such a probe as a pass would report its upper bound.
func TestMeetsSLOsUnderSampledIsAnError(t *testing.T) {
	w := dist.MustTailbenchWorkload("masstree")
	fan, _ := workload.NewFixed(10)
	arr, _ := workload.NewPoisson(0.5)
	classes, _ := workload.SingleClass(50)
	res, err := Run(buildConfig(t, core.TFEDFQ, w.ServiceTime, 100, arr, fan, classes, 300, 100, 8))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ok, _, err := res.MeetsSLOs(classes, 1000)
	if err == nil {
		t.Fatalf("MeetsSLOs with 200 samples against minSamples 1000 = %v, want an error", ok)
	}
	for _, want := range []string{"1000 samples", "1 types seen", "largest has 200"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
