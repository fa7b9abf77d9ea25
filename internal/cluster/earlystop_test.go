package cluster

import (
	"testing"

	"tailguard/internal/core"
	"tailguard/internal/dist"
	"tailguard/internal/metrics"
	"tailguard/internal/workload"
)

// checkFrom builds the early-stop check for classes from a full run's
// per-type counts — the final counts a stopped run of the same config
// would have reached.
func checkFrom(full *Result, classes *workload.ClassSet, stride, minSamples int) SLOCheck {
	c := SLOCheck{SLOMs: make([]float64, classes.Len()), Quota: make([]int32, classes.Len()*stride)}
	for _, cl := range classes.Classes() {
		c.SLOMs[cl.ID] = cl.SLOMs
	}
	full.ByType.Each(func(k ClassFanout, r *metrics.LatencyRecorder) {
		if n := r.Count(); n >= minSamples {
			cl, _ := classes.Class(k.Class)
			c.Quota[k.Class*stride+k.Fanout] = int32(metrics.ExceedQuota(n, cl.Percentile))
		}
	})
	return c
}

// earlyStopConfig is a masstree run on 20 servers with fanouts 1/4/16
// and two classes whose SLOs are slo and 1.5 x slo.
func earlyStopConfig(t *testing.T, spec core.Spec, slo float64, load float64) (Config, *workload.ClassSet) {
	t.Helper()
	w := dist.MustTailbenchWorkload("masstree")
	fan, err := workload.NewWeighted([]int{1, 4, 16}, []float64{8, 4, 1})
	if err != nil {
		t.Fatalf("NewWeighted: %v", err)
	}
	classes, err := workload.TwoClasses(slo, 1.5)
	if err != nil {
		t.Fatalf("TwoClasses: %v", err)
	}
	rate, err := workload.RateForLoad(load, 20, fan.MeanTasks(), w.ServiceTime.Mean())
	if err != nil {
		t.Fatalf("RateForLoad: %v", err)
	}
	arr, err := workload.NewPoisson(rate)
	if err != nil {
		t.Fatalf("NewPoisson: %v", err)
	}
	return buildConfig(t, spec, w.ServiceTime, 20, arr, fan, classes, 4000, 400, 3), classes
}

// TestEarlyStopNeverStopsAPassingRun is the property the max-load search
// rests on. For SLOs from hopeless to generous, a run with an early stop
// built from the full run's counts stops only if the full run fails its
// SLO check, and a run that does not stop is bit-identical to the full
// run. A failing run that is clearly over its SLO does stop.
func TestEarlyStopNeverStopsAPassingRun(t *testing.T) {
	const minSamples = 20
	var stopped, passed int
	for _, spec := range []core.Spec{core.TFEDFQ, core.FIFO, core.PRIQ} {
		for _, slo := range []float64{0.2, 0.6, 0.9, 1.2, 2, 50} {
			cfg, classes := earlyStopConfig(t, spec, slo, 0.55)
			full, err := Run(cfg)
			if err != nil {
				t.Fatalf("full Run: %v", err)
			}
			cfg, _ = earlyStopConfig(t, spec, slo, 0.55)
			cfg.EarlyStop = &EarlyStop{Stride: 17, Checks: []SLOCheck{checkFrom(full, classes, 17, minSamples)}}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("early-stop Run: %v", err)
			}
			// Compared before any quantile is read: reading one reorders a
			// recorder, and Equal compares samples in recorded order.
			var differs error
			if !res.Stopped {
				differs = full.Equal(res)
			}
			ok, margin, err := full.MeetsSLOs(classes, minSamples)
			if err != nil {
				t.Fatalf("MeetsSLOs: %v", err)
			}
			switch {
			case res.Stopped && ok:
				t.Errorf("%s slo=%v: run stopped although the full run passes", spec.Name, slo)
			case res.Stopped:
				stopped++
				if res.Completed >= full.Completed {
					t.Errorf("%s slo=%v: stopped run completed %d of %d queries", spec.Name, slo, res.Completed, full.Completed)
				}
				if _, _, err := res.MeetsSLOs(classes, minSamples); err == nil {
					t.Errorf("%s slo=%v: MeetsSLOs on a stopped run succeeded, want an error", spec.Name, slo)
				}
			case margin > 1.2:
				t.Errorf("%s slo=%v: full run is %.2fx over its SLO but the run did not stop", spec.Name, slo, margin)
			default:
				if differs != nil {
					t.Errorf("%s slo=%v: unstopped run differs from the full run: %v", spec.Name, slo, differs)
				}
				if ok {
					passed++
				}
			}
		}
	}
	if stopped == 0 || passed == 0 {
		t.Errorf("%d runs stopped and %d passed; the sweep must cover both", stopped, passed)
	}
}

// TestEarlyStopWaitsForEveryCheck: with several checks the run stops
// only once all of them have failed, so one passing check keeps it
// running to the end, bit-identical to a run without the early stop.
func TestEarlyStopWaitsForEveryCheck(t *testing.T) {
	cfg, hopeless := earlyStopConfig(t, core.FIFO, 0.2, 0.55)
	full, err := Run(cfg)
	if err != nil {
		t.Fatalf("full Run: %v", err)
	}
	generous, _ := workload.TwoClasses(50, 1.5)
	fail, pass := checkFrom(full, hopeless, 17, 20), checkFrom(full, generous, 17, 20)

	cfg, _ = earlyStopConfig(t, core.FIFO, 0.2, 0.55)
	cfg.EarlyStop = &EarlyStop{Stride: 17, Checks: []SLOCheck{fail, pass}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := full.Equal(res); err != nil {
		t.Errorf("run with one passing check differs from the full run: %v", err)
	}

	cfg, _ = earlyStopConfig(t, core.FIFO, 0.2, 0.55)
	cfg.EarlyStop = &EarlyStop{Stride: 17, Checks: []SLOCheck{fail, fail}}
	if res, err = Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Stopped {
		t.Error("run with only failing checks did not stop")
	}
}

func TestEarlyStopValidation(t *testing.T) {
	cfg, _ := earlyStopConfig(t, core.FIFO, 1, 0.3)
	for name, es := range map[string]*EarlyStop{
		"no checks":   {Stride: 17},
		"zero stride": {Stride: 0, Checks: []SLOCheck{{SLOMs: []float64{1, 1}, Quota: make([]int32, 34)}}},
		"short SLOs":  {Stride: 17, Checks: []SLOCheck{{SLOMs: []float64{1}, Quota: make([]int32, 34)}}},
		"short quota": {Stride: 17, Checks: []SLOCheck{{SLOMs: []float64{1, 1}, Quota: make([]int32, 17)}}},
	} {
		c := cfg
		c.EarlyStop = es
		if _, err := Run(c); err == nil {
			t.Errorf("%s: Run succeeded, want a validation error", name)
		}
	}
}

// loopSource is a fixed-gap, fanout-2 query source over 4 servers that
// owns its placement slices (taking them back through Recycle) and can be
// rewound, so runs that reuse it allocate no placements once it is warm.
type loopSource struct {
	n    int64
	free [][]int
}

func (s *loopSource) NextInto(q *workload.Query) bool {
	var servers []int
	if k := len(s.free); k > 0 {
		servers, s.free = s.free[k-1], s.free[:k-1]
	} else {
		servers = make([]int, 2)
	}
	servers[0], servers[1] = int(s.n%4), int((s.n+1)%4)
	*q = workload.Query{ID: s.n, Arrival: float64(s.n) * 0.4, Fanout: 2, Servers: servers}
	s.n++
	return true
}

func (s *loopSource) Recycle(servers []int) { s.free = append(s.free, servers) }

// overloadRun runs 4000 queries at load 1.25 on an arena, rewinding src
// first, so the backlog grows until latencies pass the 50 ms SLO. With
// stop set, the early stop ends the run with that backlog in flight. It
// returns the result to the arena and reports whether the run stopped
// and how many queries it left unfinished.
func overloadRun(t *testing.T, arena *Arena, src *loopSource, dl *core.Deadliner, classes *workload.ClassSet, stop bool) (bool, int) {
	t.Helper()
	src.n = 0
	cfg := Config{
		Servers: 4, Spec: core.TFEDFQ, ServiceTimes: []dist.Distribution{dist.Deterministic{V: 1}},
		Generator: src, Classes: classes, Deadliner: dl,
		Queries: 4000, Warmup: 100, Seed: 8, Arena: arena,
	}
	if stop {
		quota := make([]int32, 3)
		quota[2] = int32(metrics.ExceedQuota(3900, 0.99))
		cfg.EarlyStop = &EarlyStop{Stride: 3, Checks: []SLOCheck{{SLOMs: []float64{50}, Quota: quota}}}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	stopped, left := res.Stopped, res.Queries-res.Completed
	arena.Release(res)
	return stopped, left
}

// TestStoppedRunAllocations extends TestSteadyStateRunAllocations to runs
// that stop early: what a stopped run leaves in flight (queued and
// in-service tasks, the pending arrival's query box, the unfinished
// queries' placements) goes back to the arena and the source, so on a
// warmed arena a run that abandons a backlog of hundreds of tasks
// allocates no more than the same run carried to the end.
func TestStoppedRunAllocations(t *testing.T) {
	classes, err := workload.SingleClass(50)
	if err != nil {
		t.Fatalf("SingleClass: %v", err)
	}
	est, err := core.NewHomogeneousStaticTailEstimator(dist.Deterministic{V: 1}, 4)
	if err != nil {
		t.Fatalf("NewHomogeneousStaticTailEstimator: %v", err)
	}
	dl, err := core.NewDeadliner(core.TFEDFQ, est, classes)
	if err != nil {
		t.Fatalf("NewDeadliner: %v", err)
	}
	// Stopped runs first, so the arena holds only what they hand back: a
	// finished run's larger backlog would leave spare tasks that hide a
	// leak.
	arena, src := NewArena(), &loopSource{}
	if stopped, left := overloadRun(t, arena, src, dl, classes, true); !stopped || left < 100 {
		t.Fatalf("early-stop run stopped=%v with %d queries unfinished, want a stop with a backlog of >= 100", stopped, left)
	}
	stopped := testing.AllocsPerRun(5, func() { overloadRun(t, arena, src, dl, classes, true) })
	finished := testing.AllocsPerRun(5, func() { overloadRun(t, arena, src, dl, classes, false) })
	if stopped > finished+8 {
		t.Errorf("stopped run allocates %0.f/run, the finished run %0.f/run: the abandoned backlog is not returned",
			stopped, finished)
	}
}
