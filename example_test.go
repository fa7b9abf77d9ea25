package tailguard_test

import (
	"context"
	"fmt"

	"tailguard"
)

// The motivating arithmetic of the paper's introduction: the same per-task
// violation probability blows up with fanout.
func ExampleSLOViolationProbability() {
	for _, fanout := range []int{1, 10, 100} {
		v, err := tailguard.SLOViolationProbability(0.01, fanout)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("fanout %3d: query violation %.1f%%\n", fanout, v*100)
	}
	// Output:
	// fanout   1: query violation 1.0%
	// fanout  10: query violation 9.6%
	// fanout 100: query violation 63.4%
}

// Eqn. 6 end to end: task queuing budgets for the Masstree model under a
// two-class SLO configuration. These are the paper's own Section IV.C
// numbers.
func ExampleDeadliner() {
	w, err := tailguard.TailbenchWorkload("masstree")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	est, err := tailguard.NewHomogeneousStaticTailEstimator(w.ServiceTime, 100)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	classes, err := tailguard.TwoClasses(1.0, 1.5)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	dl, err := tailguard.NewDeadliner(tailguard.TFEDFQ, est, classes)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for class := 0; class < 2; class++ {
		b, err := dl.Budget(class, 100)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("class %d, fanout 100: budget %.3f ms\n", class, b)
	}
	// Output:
	// class 0, fanout 100: budget 0.527 ms
	// class 1, fanout 100: budget 1.027 ms
}

// A complete simulation through the facade: the paper's mixed-fanout
// workload at a load between FIFO's and TailGuard's maximum.
func ExampleScenario() {
	w, err := tailguard.TailbenchWorkload("masstree")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fan, err := tailguard.NewInverseProportional([]int{1, 10, 100})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	classes, err := tailguard.SingleClass(0.8)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, spec := range []tailguard.Spec{tailguard.TFEDFQ, tailguard.FIFO} {
		s := tailguard.Scenario{
			Workload: w, Servers: 100, Spec: spec, Fanout: fan,
			Classes: classes, Load: 0.25,
			Fidelity: tailguard.Fidelity{Queries: 60000, Warmup: 5000, MinSamples: 100, LoadTol: 0.02, Seed: 1},
		}
		res, err := s.Run()
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		ok, _, err := res.MeetsSLOs(classes, 100)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%s meets the 0.8 ms SLO at 25%% load: %v\n", spec.Name, ok)
	}
	// Output:
	// TailGuard meets the 0.8 ms SLO at 25% load: true
	// FIFO meets the 0.8 ms SLO at 25% load: false
}

// The request-level extension: tails do not add across a request's
// sequential queries.
func ExampleUnloadedRequestQuantile() {
	w, err := tailguard.TailbenchWorkload("masstree")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fanouts := []int{1, 10, 100}
	x, err := tailguard.UnloadedRequestQuantile(w.ServiceTime, fanouts, 0.99, 400000, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var naive float64
	for _, k := range fanouts {
		q, err := tailguard.HomogeneousQueryQuantile(w.ServiceTime, k, 0.99)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		naive += q
	}
	fmt.Printf("sum of per-query p99s: %.2f ms\n", naive)
	fmt.Printf("request p99 is smaller: %v\n", x < naive)
	// Output:
	// sum of per-query p99s: 0.94 ms
	// request p99 is smaller: true
}

// Admission control under overload (the paper's Fig. 7 situation): an
// OLDI workload, fanout 100 in two classes, offered more load than the
// cluster serves within its SLOs. Without admission control both classes
// miss; with the moving-window controller the accepted queries keep
// their SLOs and the excess is rejected at arrival.
func ExampleScenario_admission() {
	w, err := tailguard.TailbenchWorkload("masstree")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fan, err := tailguard.NewFixedFanout(100)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	classes, err := tailguard.TwoClasses(1.0, 1.5)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, admit := range []bool{false, true} {
		s := tailguard.Scenario{
			Workload: w, Servers: 100, Spec: tailguard.TFEDFQ,
			Fanout: fan, Classes: classes, Load: 0.65,
			// The warm-up covers the controller's convergence transient.
			Fidelity: tailguard.Fidelity{Queries: 8000, Warmup: 3000, MinSamples: 200, LoadTol: 0.02, Seed: 5},
		}
		if admit {
			// Rth is the task deadline-miss ratio measured at the
			// maximum acceptable load (~55% here).
			s.AdmissionWindowMs = 1000
			s.AdmissionThreshold = 0.008
		}
		res, err := s.Run()
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		ok, _, err := res.MeetsSLOs(classes, 100)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("admission %-5v rejected some: %-5v both SLOs met: %v\n", admit, res.Rejected > 0, ok)
	}
	// Output:
	// admission false rejected some: false both SLOs met: false
	// admission true  rejected some: true  both SLOs met: true
}

// Web search (the paper's Section IV.C OLDI case on the Xapian model):
// every query fans out to all 100 servers in two classes, and the
// maximum load meeting both SLOs orders the three policies.
func ExampleScenarioMaxLoad() {
	w, err := tailguard.TailbenchWorkload("xapian")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fan, err := tailguard.NewFixedFanout(100)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	classes, err := tailguard.TwoClasses(10, 1.5) // 10 and 15 ms p99
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, spec := range []tailguard.Spec{tailguard.TFEDFQ, tailguard.FIFO, tailguard.PRIQ} {
		s := tailguard.Scenario{
			Workload: w, Servers: 100, Spec: spec, Fanout: fan, Classes: classes,
			Fidelity: tailguard.Fidelity{Queries: 1500, Warmup: 150, MinSamples: 20, LoadTol: 0.02, Seed: 7},
		}
		ml, err := tailguard.ScenarioMaxLoad(s, tailguard.MaxLoadBounds{Lo: 0.05, Hi: 0.9})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%-9s max load %.0f%%\n", spec.Name, ml*100)
	}
	// Output:
	// TailGuard max load 62%
	// FIFO      max load 50%
	// PRIQ      max load 54%
}

// Social networking: a page load touches a Zipf-distributed number of
// shards. MaxLoad searches any monotone verdict; this one checks the 1 ms
// p99 SLO over fanout bands, pooling each band's samples in an ECDF,
// since a continuous fanout leaves few samples per exact fanout. At
// TailGuard's maximum load, FIFO already misses on some band.
func ExampleMaxLoad() {
	w, err := tailguard.TailbenchWorkload("masstree")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fan, err := tailguard.NewZipfFanout(100, 1.1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	classes, err := tailguard.SingleClass(1.0)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("Zipf(1..100, s=1.1): P(1)=%.2f P(100)=%.4f E[k]=%.2f\n", fan.Prob(1), fan.Prob(100), fan.MeanTasks())
	meetsBands := func(spec tailguard.Spec, load float64) (bool, error) {
		s := tailguard.Scenario{
			Workload: w, Servers: 100, Spec: spec, Fanout: fan, Classes: classes, Load: load,
			Fidelity: tailguard.Fidelity{Queries: 15000, Warmup: 1500, MinSamples: 100, LoadTol: 0.02, Seed: 3},
		}
		res, err := s.Run()
		if err != nil {
			return false, err
		}
		bands := map[string][]float64{}
		res.ByFanout.Each(func(k int, rec *tailguard.LatencyRecorder) {
			band := "narrow"
			if k >= 50 {
				band = "wide"
			} else if k >= 10 {
				band = "medium"
			}
			bands[band] = append(bands[band], rec.Samples()...)
		})
		for _, samples := range bands {
			if len(samples) < 200 {
				continue
			}
			e, err := tailguard.NewECDF(samples)
			if err != nil {
				return false, err
			}
			if e.Quantile(0.99) > 1.0 {
				return false, nil
			}
		}
		return true, nil
	}
	ml, err := tailguard.MaxLoad(tailguard.MaxLoadBounds{Lo: 0.05, Hi: 0.9}, 0.02, func(load float64) (bool, error) {
		return meetsBands(tailguard.TFEDFQ, load)
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("TailGuard max load %.0f%%\n", ml*100)
	ok, err := meetsBands(tailguard.FIFO, ml)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("FIFO meets every band there: %v\n", ok)
	// Output:
	// Zipf(1..100, s=1.1): P(1)=0.23 P(100)=0.0015 E[k]=16.32
	// TailGuard max load 40%
	// FIFO meets every band there: false
}

// Embedding TailGuard in a service: the in-process scheduler owns one
// serial worker per shard of a toy key-value store. Point lookups (fanout
// 1) and scatter-gather scans (fanout 4) share the shards under two SLO
// classes; the scheduler stamps fanout-aware deadlines, learns task
// latencies online, and runs the application's task functions.
func ExampleNewScheduler() {
	const shards = 4
	classes, err := tailguard.NewClassSet([]tailguard.Class{
		{ID: 0, Name: "lookup", SLOMs: 5, Percentile: 0.99, Weight: 1},
		{ID: 1, Name: "scan", SLOMs: 15, Percentile: 0.99, Weight: 1},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// The offline seed: roughly what one task costs, refined online.
	offline, err := tailguard.NewQuantileTable([]tailguard.Breakpoint{
		{P: 0, T: 0.3}, {P: 0.8, T: 1.0}, {P: 1, T: 3},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sched, err := tailguard.NewScheduler(tailguard.SchedulerConfig{
		Servers: shards, Spec: tailguard.TFEDFQ, Classes: classes, Offline: offline,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer sched.Close()

	all := []int{0, 1, 2, 3}
	b1, err := sched.Budget(0, []int{0})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	b4, err := sched.Budget(1, all)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("queuing budgets: lookup (fanout 1) %.2f ms, scan (fanout 4) %.2f ms\n", b1, b4)

	// A scan: one task per shard, each writing only its own slot (each
	// shard's tasks run serially, so no lock is needed inside a task).
	rows := make([]int, shards)
	tasks := make([]tailguard.SchedulerTask, shards)
	for i := range tasks {
		shard := i
		tasks[i] = tailguard.SchedulerTask{Server: shard, Run: func(context.Context) error {
			rows[shard] = 1000 + shard
			return nil
		}}
	}
	if _, err := sched.Do(context.Background(), 1, tasks); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("scan rows per shard:", rows)
	// Output:
	// queuing budgets: lookup (fanout 1) 2.10 ms, scan (fanout 4) 12.01 ms
	// scan rows per shard: [1000 1001 1002 1003]
}
