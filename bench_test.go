package tailguard

// One benchmark per table and figure of the paper (scaled down so a full
// -bench=. pass stays in CPU-minutes; cmd/tgsim and cmd/tgtestbed run the
// same experiments at publication fidelity), plus micro-benchmarks of the
// operations on TailGuard's fast path. Shape metrics (max loads, p99s,
// gains) are emitted with b.ReportMetric so bench output doubles as a
// quick regression check of the headline results.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tailguard/internal/control"
	"tailguard/internal/core"
	"tailguard/internal/dist"
	"tailguard/internal/experiment"
	"tailguard/internal/fault"
	"tailguard/internal/policy"
	"tailguard/internal/request"
	"tailguard/internal/saas"
	"tailguard/internal/sched"
	"tailguard/internal/sim"
	"tailguard/internal/tgd"
	"tailguard/internal/workload"
)

// benchFid sizes experiment benchmarks: big enough for stable shapes,
// small enough for seconds-per-iteration.
var benchFid = experiment.Fidelity{Queries: 20000, Warmup: 2000, MinSamples: 100, LoadTol: 0.02, Seed: 1}

// --- Table II / Fig. 3 -------------------------------------------------

func BenchmarkFig3CDFs(b *testing.B) {
	w := dist.MustTailbenchWorkload("xapian")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := float64(i%999+1) / 1000
		_ = w.ServiceTime.Quantile(p)
		_ = w.ServiceTime.CDF(1.0)
	}
}

func BenchmarkTable2UnloadedTails(b *testing.B) {
	w := dist.MustTailbenchWorkload("masstree")
	b.ReportAllocs()
	var last float64
	for i := 0; i < b.N; i++ {
		x, err := dist.HomogeneousQueryQuantile(w.ServiceTime, 1+i%100, 0.99)
		if err != nil {
			b.Fatal(err)
		}
		last = x
	}
	b.ReportMetric(last, "x99_ms")
}

// --- Fig. 4 / Table III ------------------------------------------------

func BenchmarkFig4MaxLoadSingleClass(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		tbl, err := experiment.Fig4(benchFid, []string{"masstree"}, map[string][]float64{"masstree": {1.0}})
		if err != nil {
			b.Fatal(err)
		}
		gain = tbl.Raw[0]["gain_vs_fifo"]
	}
	b.ReportMetric(gain*100, "tailguard_gain_pct")
}

func BenchmarkTable3Breakdown(b *testing.B) {
	var p99 float64
	for i := 0; i < b.N; i++ {
		tbl, err := experiment.Table3(benchFid, []float64{1.0})
		if err != nil {
			b.Fatal(err)
		}
		p99 = tbl.Raw[len(tbl.Raw)-1]["p99_k100"]
	}
	b.ReportMetric(p99, "tailguard_p99_k100_ms")
}

// --- Fig. 5 ------------------------------------------------------------

func BenchmarkFig5TwoClass(b *testing.B) {
	var tg float64
	for i := 0; i < b.N; i++ {
		tbl, err := experiment.Fig5(benchFid, []float64{1.0}, []experiment.ArrivalKind{experiment.Poisson})
		if err != nil {
			b.Fatal(err)
		}
		tg = tbl.Raw[0]["max_load"] // TailGuard is first in Specs order
	}
	b.ReportMetric(tg*100, "tailguard_max_load_pct")
}

// --- Fig. 6 ------------------------------------------------------------

func BenchmarkFig6OLDICurves(b *testing.B) {
	var p99 float64
	for i := 0; i < b.N; i++ {
		tbl, err := experiment.Fig6(benchFid, []string{"masstree"}, []float64{0.30, 0.50})
		if err != nil {
			b.Fatal(err)
		}
		p99 = tbl.Raw[1]["p99_classI"] // TailGuard at 50% load
	}
	b.ReportMetric(p99, "tailguard_p99_classI_at50_ms")
}

// --- Fig. 7 ------------------------------------------------------------

func BenchmarkFig7Admission(b *testing.B) {
	var accepted float64
	for i := 0; i < b.N; i++ {
		tbl, err := experiment.Fig7(benchFid, []float64{0.65})
		if err != nil {
			b.Fatal(err)
		}
		accepted = tbl.Raw[0]["accepted"]
	}
	b.ReportMetric(accepted*100, "accepted_load_pct")
}

// --- Fig. 9 (live testbed) ----------------------------------------------

// benchStores are shared across testbed benchmarks (generation dominates).
var benchStores []*saas.Store

func testbedStores(b *testing.B) []*saas.Store {
	b.Helper()
	if benchStores == nil {
		s, err := saas.BuildStores(24 * time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		benchStores = s
	}
	return benchStores
}

func BenchmarkFig9aClusterCDFs(b *testing.B) {
	stores := testbedStores(b)
	var srMean float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := saas.RunTestbed(saas.TestbedConfig{
			Spec:         core.TFEDFQ,
			Load:         0.30,
			Queries:      300,
			Warmup:       50,
			Compression:  10,
			Seed:         int64(i + 1),
			SharedStores: stores,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Errors) > 0 {
			b.Fatal(res.Errors[0])
		}
		srMean = res.PerCluster[saas.ServerRoom].MeanMs
	}
	b.ReportMetric(srMean, "serverroom_mean_ms_paper82")
}

func BenchmarkFig9Testbed(b *testing.B) {
	stores := testbedStores(b)
	var p99A float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := saas.RunTestbed(saas.TestbedConfig{
			Spec:         core.TFEDFQ,
			Load:         0.35,
			Queries:      400,
			Warmup:       60,
			Compression:  10,
			Seed:         int64(i + 1),
			SharedStores: stores,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Errors) > 0 {
			b.Fatal(res.Errors[0])
		}
		p99A = res.ByClass[saas.ClassA].P99Ms
	}
	b.ReportMetric(p99A, "classA_p99_ms_slo800")
}

// --- Extensions ----------------------------------------------------------

func BenchmarkExtLargeCluster(b *testing.B) {
	// One N=1000, 4-class, fanout-up-to-1000 TailGuard run (the full
	// nscale max-load search lives in cmd/tgsim -exp nscale).
	w := dist.MustTailbenchWorkload("masstree")
	fan, err := workload.NewInverseProportional([]int{1, 10, 100, 1000})
	if err != nil {
		b.Fatal(err)
	}
	classes, err := workload.NewClassSet([]workload.Class{
		{ID: 0, SLOMs: 1.0, Percentile: 0.99, Weight: 1},
		{ID: 1, SLOMs: 1.33, Percentile: 0.99, Weight: 1},
		{ID: 2, SLOMs: 1.67, Percentile: 0.99, Weight: 1},
		{ID: 3, SLOMs: 2.0, Percentile: 0.99, Weight: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	var p99 float64
	for i := 0; i < b.N; i++ {
		s := experiment.Scenario{
			Workload: w, Servers: 1000, Spec: core.TFEDFQ, Fanout: fan,
			Classes: classes, Load: 0.30, Fidelity: benchFid,
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		v, err := res.Overall.P99()
		if err != nil {
			b.Fatal(err)
		}
		p99 = v
	}
	b.ReportMetric(p99, "overall_p99_ms")
}

func BenchmarkExtRequestBudgets(b *testing.B) {
	w := dist.MustTailbenchWorkload("masstree")
	var tail float64
	for i := 0; i < b.N; i++ {
		res, err := request.Run(request.RunConfig{
			Plan:          request.Plan{Fanouts: []int{1, 10, 100}, SLOMs: 3.0, Percentile: 0.99},
			Servers:       100,
			Spec:          core.TFEDFQ,
			Service:       w.ServiceTime,
			Strategy:      request.EqualSplit{},
			Load:          0.30,
			Requests:      3000,
			Warmup:        300,
			Seed:          int64(i + 1),
			BudgetSamples: 50000,
		})
		if err != nil {
			b.Fatal(err)
		}
		tail = res.TailMs
	}
	b.ReportMetric(tail, "request_p99_ms_slo3")
}

// --- Ablations -----------------------------------------------------------

func BenchmarkAblationQueues(b *testing.B) {
	var miss float64
	for i := 0; i < b.N; i++ {
		tbl, err := experiment.AblationQueues(benchFid, 0.30)
		if err != nil {
			b.Fatal(err)
		}
		miss = tbl.Raw[0]["miss_ratio"]
	}
	b.ReportMetric(miss*100, "tailguard_miss_pct")
}

func BenchmarkAblationHeterogeneity(b *testing.B) {
	var oracle float64
	for i := 0; i < b.N; i++ {
		tbl, err := experiment.AblationHeterogeneity(benchFid, 0.30)
		if err != nil {
			b.Fatal(err)
		}
		oracle = tbl.Raw[1]["p99_k100"]
	}
	b.ReportMetric(oracle, "oracle_p99_k100_ms")
}

func BenchmarkAblationAdmissionWindow(b *testing.B) {
	var accepted float64
	for i := 0; i < b.N; i++ {
		tbl, err := experiment.AblationAdmissionWindow(benchFid, 0.65, []float64{100, 400})
		if err != nil {
			b.Fatal(err)
		}
		accepted = tbl.Raw[1]["accepted"]
	}
	b.ReportMetric(accepted*100, "accepted_pct_w400")
}

// --- Parallel sweep harness ----------------------------------------------

// sweepFid sizes the harness benchmarks: a replicated Fig. 4 sweep large
// enough that the per-cell simulation dominates pool overhead.
var sweepFid = experiment.Fidelity{Queries: 8000, Warmup: 800, MinSamples: 30, LoadTol: 0.04, Seed: 1}

func benchSweepFig4(b *testing.B, workers int) {
	fid := sweepFid
	fid.Workers = workers
	slos := map[string][]float64{"masstree": {0.75, 1.0, 1.5, 2.0}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := experiment.Fig4Replicated(fid, []string{"masstree"}, slos, 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) != 8 {
			b.Fatalf("sweep rows = %d, want 8", len(tbl.Rows))
		}
	}
}

// BenchmarkSweepFig4Sequential and BenchmarkSweepFig4Parallel run the same
// replicated Fig. 4 sweep (4 SLOs x 2 policies x 4 replicates) at
// Workers=1 and Workers=GOMAXPROCS; tools/benchjson derives the
// fig4_sweep_speedup ratio from the pair. Their outputs are bit-identical
// (TestGeneratorsParallelGolden), so the ratio is pure wall-clock.
func BenchmarkSweepFig4Sequential(b *testing.B) { benchSweepFig4(b, 1) }

// BenchmarkSweepFig4Parallel pins the worker count to the actual
// GOMAXPROCS and reports it as a metric, so a sweep "speedup" measured on
// a single-core runner is visibly meaningless rather than silently ~1.0:
// tools/benchjson flags the derived ratio whenever it is <= 1.0 and
// records the core count it was measured at.
func BenchmarkSweepFig4Parallel(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	benchSweepFig4(b, procs)
	// After benchSweepFig4: its ResetTimer would clear reported metrics.
	b.ReportMetric(float64(procs), "gomaxprocs")
}

// --- Fast-path micro-benchmarks ------------------------------------------

// benchDeadliner is the two-class TF-EDFQ Deadliner on a 100-server
// masstree estimator that the cached-lookup benchmarks share.
func benchDeadliner(b *testing.B) *core.Deadliner {
	w := dist.MustTailbenchWorkload("masstree")
	est, err := core.NewHomogeneousStaticTailEstimator(w.ServiceTime, 100)
	if err != nil {
		b.Fatal(err)
	}
	classes, err := workload.TwoClasses(1.0, 1.5)
	if err != nil {
		b.Fatal(err)
	}
	dl, err := core.NewDeadliner(core.TFEDFQ, est, classes)
	if err != nil {
		b.Fatal(err)
	}
	return dl
}

func BenchmarkDeadlineEstimationCached(b *testing.B) {
	dl := benchDeadliner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dl.Deadline(float64(i), i%2, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeadlineEstimationCachedParallel is the shared-Deadliner
// shape of tgd and saas: every request goroutine looks budgets up on
// one Deadliner, so the figure includes whatever the lookup contends on.
func BenchmarkDeadlineEstimationCachedParallel(b *testing.B) {
	dl := benchDeadliner(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if _, err := dl.Deadline(float64(i), i%2, 100); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkEngineEvent is one ScheduleCallAfter + Step on an engine held
// at a fixed number of pending events, with service-time-shaped delays:
// 41 is what 100 servers at load 0.40 hold (one completion per busy
// server plus the next arrival), 4096 a large cluster. The wheel/heap
// pair puts the crossover between the two event queues on the books.
func BenchmarkEngineEvent(b *testing.B) {
	w := dist.MustTailbenchWorkload("masstree")
	rng := rand.New(rand.NewSource(1))
	delays := make([]float64, 4096)
	for i := range delays {
		delays[i] = w.ServiceTime.Sample(rng)
	}
	noop := func(any, float64) {}
	for _, eng := range []struct {
		name string
		mk   func() *sim.Engine
	}{{"wheel", sim.NewEngine}, {"heap", sim.NewHeapEngine}} {
		for _, pending := range []int{41, 4096} {
			b.Run(fmt.Sprintf("%s/pending=%d", eng.name, pending), func(b *testing.B) {
				en := eng.mk()
				for i := 0; i < pending; i++ {
					if err := en.ScheduleCallAfter(delays[i%len(delays)], noop, nil, 0); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := en.ScheduleCallAfter(delays[i%len(delays)], noop, nil, 0); err != nil {
						b.Fatal(err)
					}
					en.Step()
				}
			})
		}
	}
}

func BenchmarkDeadlineEstimationHeterogeneous(b *testing.B) {
	models := make([]dist.Distribution, 32)
	for i := range models {
		cluster, err := saas.NodeCluster(i)
		if err != nil {
			b.Fatal(err)
		}
		m, err := saas.ClusterDelayModel(cluster, 1)
		if err != nil {
			b.Fatal(err)
		}
		models[i] = m
	}
	est, err := core.NewStaticTailEstimator(models)
	if err != nil {
		b.Fatal(err)
	}
	classes, err := workload.SingleClass(1800)
	if err != nil {
		b.Fatal(err)
	}
	dl, err := core.NewDeadliner(core.TFEDFQ, est, classes)
	if err != nil {
		b.Fatal(err)
	}
	servers := make([]int, 32)
	for i := range servers {
		servers[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dl.DeadlineServers(float64(i), 0, servers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEDFQueue(b *testing.B) {
	q, err := policy.New(policy.EDF)
	if err != nil {
		b.Fatal(err)
	}
	tasks := make([]policy.Task, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := &tasks[i%1024]
		t.Deadline = float64((i * 2654435761) % 1000)
		q.Push(t)
		if q.Len() > 512 {
			q.Pop()
		}
	}
}

func BenchmarkOnlineCDFAdd(b *testing.B) {
	o := dist.NewOnlineCDF(dist.OnlineCDFConfig{HalfLife: 100000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := o.Add(float64(i%500) / 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerDo(b *testing.B) {
	// Throughput of the production scheduler's full Do path (queue,
	// deadline, dispatch, execute, measure) with trivial tasks.
	classes, err := workload.SingleClass(100)
	if err != nil {
		b.Fatal(err)
	}
	offline, err := dist.NewExponential(0.01)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.New(sched.Config{Servers: 8, Classes: classes, Offline: offline})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	noop := func(context.Context) error { return nil }
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Do(ctx, 0, []sched.Task{{Server: i % 8, Run: noop}}); err != nil {
			b.Fatal(err)
		}
	}
}

// reportTasksPerSec publishes the simulated-tasks-per-wall-second
// metric shared by the throughput benchmarks.
func reportTasksPerSec(b *testing.B, tasks float64) {
	b.ReportMetric(tasks/b.Elapsed().Seconds(), "tasks/s")
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	// Tasks simulated per second of wall time, the figure that bounds
	// every experiment's cost.
	w := dist.MustTailbenchWorkload("masstree")
	fan, err := workload.NewInverseProportional([]int{1, 10, 100})
	if err != nil {
		b.Fatal(err)
	}
	classes, err := workload.SingleClass(1.0)
	if err != nil {
		b.Fatal(err)
	}
	const queriesPerIter = 20000
	var tasks int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := experiment.Scenario{
			Workload: w, Servers: 100, Spec: core.TFEDFQ, Fanout: fan,
			Classes: classes, Load: 0.40,
			Fidelity: experiment.Fidelity{Queries: queriesPerIter, Warmup: 100, MinSamples: 10, LoadTol: 0.02, Seed: int64(i + 1)},
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		tasks += int(float64(res.Completed) * fan.MeanTasks())
	}
	reportTasksPerSec(b, float64(tasks))
}

// BenchmarkShardedClusterThroughput is the stock sharded-core benchmark:
// the 10k-server, 10M-query scenario (experiment.ShardScaleScenario) run
// once on the sequential engine (shards=1) and once sharded (shards=4),
// each reporting simulated tasks per wall-clock second plus the
// gomaxprocs and shards it ran at. tools/benchjson derives the
// speedup-vs-1-shard ratio from the pair — and refuses to publish it as
// a speedup when gomaxprocs is 1, where parallel scaling is impossible
// by construction. Under -short (CI's bench-smoke) the scenario shrinks
// to 1000 servers / 200k queries.
func BenchmarkShardedClusterThroughput(b *testing.B) {
	servers, queries, warmup := 10000, 10_000_000, 100_000
	if testing.Short() {
		servers, queries, warmup = 1000, 200_000, 2000
	}
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var tasks float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fid := experiment.Fidelity{Queries: queries, Warmup: warmup, MinSamples: 1, LoadTol: 0.02, Seed: int64(i + 1)}
				s, err := experiment.ShardScaleScenario(fid, servers, shards)
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				tasks += float64(res.Completed) * s.Fanout.MeanTasks()
			}
			reportTasksPerSec(b, tasks)
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			b.ReportMetric(float64(shards), "shards")
		})
	}
}

// BenchmarkTgdEnqueueClaim measures the scheduler daemon's wire
// throughput: each iteration pushes one fanout-4 query through the full
// enqueue → claim → complete cycle over the in-process client (real JSON
// round trips, no sockets) against an in-memory store, reporting tasks
// settled per wall-clock second.
func BenchmarkTgdEnqueueClaim(b *testing.B) {
	d, err := tgd.New(tgd.Config{
		Resilience:     fault.Resilience{RetryBudget: 1},
		DefaultLeaseMs: 60000, // never expires inside an iteration
	})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	c := tgd.NewInProcessClient(d)
	ctx := context.Background()
	const fanout = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.Enqueue(ctx, tgd.EnqueueRequest{Fanout: fanout, DeadlineMs: 1e15})
		if err != nil {
			b.Fatal(err)
		}
		for range fanout {
			lease, err := c.Claim(ctx, tgd.ClaimRequest{Worker: "bench"})
			if err != nil || lease == nil {
				b.Fatalf("claim: %v %v", lease, err)
			}
			if _, err := c.Complete(ctx, tgd.CompleteRequest{
				QueryID: lease.QueryID, TaskIndex: lease.TaskIndex, LeaseID: lease.LeaseID, Worker: "bench",
			}); err != nil {
				b.Fatal(err)
			}
		}
		_ = resp
	}
	reportTasksPerSec(b, float64(b.N*fanout))
}

// BenchmarkControlLoopOverhead measures one adaptive-control tick in
// steady state — the AIMD loops, token-bucket refill, autoscale
// hysteresis, and decision-ring record — the per-period cost the control
// plane adds to a simulated or live scheduler. The miss ratio alternates
// around the target band so both the shed and recover paths run; steady
// state allocates nothing (gated by the control package's alloc test).
func BenchmarkControlLoopOverhead(b *testing.B) {
	ctl, err := control.New(control.Config{
		TickMs:      10,
		TargetRatio: 0.05,
		ClassRates:  []float64{0, 2},
		MinServers:  60,
		MaxServers:  100,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := ctl.InitServers(100, 80); err != nil {
		b.Fatal(err)
	}
	gate, err := workload.NewCreditGate(ctl.Credits())
	if err != nil {
		b.Fatal(err)
	}
	ctl.AttachGate(gate)
	now := 0.0
	for i := 0; i < 2048; i++ { // fill the decision ring
		now += 10
		ctl.Tick(now, control.Signals{MissRatio: float64(i%2) * 0.2, InFlight: 64})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 10
		ctl.Tick(now, control.Signals{MissRatio: float64(i%2) * 0.2, InFlight: 64})
		ctl.AllowClass(1, now)
	}
}
