package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"tailguard/internal/cluster"
	"tailguard/internal/core"
	"tailguard/internal/dist"
	"tailguard/internal/experiment"
	"tailguard/internal/parallel"
	"tailguard/internal/workload"
)

// --- sim-steady -----------------------------------------------------------

const (
	steadyServers    = 100
	steadyLoad       = 0.40
	steadyMinSamples = 1000 // per (class, fanout) type before its p99 is checked
)

// steadyEnv is what sim-steady's set-up leaves behind: the service-time
// model, the query mix and an arena already warmed by one short run, so
// the timed chunks measure steady state.
type steadyEnv struct {
	w       *dist.Workload
	fan     workload.FanoutDist
	classes *workload.ClassSet
	arena   *cluster.Arena
}

func (e *steadyEnv) scenario(seed int64, queries, shards int) experiment.Scenario {
	return experiment.Scenario{
		Workload: e.w, Servers: steadyServers, Spec: core.TFEDFQ,
		Fanout: e.fan, Classes: e.classes, Load: steadyLoad, Shards: shards,
		// No warm-up exclusion: every task's wait is recorded, which is
		// what lets TaskWait.Count() serve as the exact task count.
		Fidelity: experiment.Fidelity{Queries: queries, MinSamples: steadyMinSamples, LoadTol: 0.02, Seed: seed},
	}
}

func steadySetup(e *env) (*steadyEnv, error) {
	w, err := dist.TailbenchWorkload("masstree")
	if err != nil {
		return nil, err
	}
	fan, err := workload.NewInverseProportional([]int{1, 10, 100})
	if err != nil {
		return nil, err
	}
	classes, err := workload.TwoClasses(1.0, 1.5)
	if err != nil {
		return nil, err
	}
	se := &steadyEnv{w: w, fan: fan, classes: classes, arena: cluster.NewArena()}
	cfg, err := se.scenario(e.seed, e.size(100_000, 5_000), 0).Build()
	if err != nil {
		return nil, err
	}
	cfg.Arena = se.arena
	res, err := cluster.Run(cfg)
	if err != nil {
		return nil, err
	}
	se.arena.Release(res)
	return se, nil
}

// steadyChunks runs fixed-size cluster.Run chunks back to back until the
// time is up, timing each from outside. It returns simulated tasks per
// host second for every chunk and the first chunk's Result, whose
// simulated latencies depend on the seed alone. In the traced run only
// odd chunks record spans, so traced and untraced chunks interleave and
// share whatever drift the host has.
func steadyChunks(e *env, se *steadyEnv, traced *lane, o *outcome) (rates []float64, first *cluster.Result, err error) {
	queries := e.size(500_000, 20_000)
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		var l *lane
		if i%2 == 1 {
			l = traced
		}
		var cfg cluster.Config
		parent := l.timed("Scenario.Build", -1, int64(i), func() {
			cfg, err = se.scenario(parallel.DeriveSeed(e.seed, i), queries, 0).Build()
		})
		if err != nil {
			return nil, nil, err
		}
		cfg.Arena = se.arena
		var res *cluster.Result
		start := time.Now()
		res, err = cluster.Run(cfg)
		end := time.Now()
		l.add("cluster.Run", start, end, parent, int64(i))
		o.attempted++
		if err != nil {
			o.failed++
			return nil, nil, err
		}
		if res.Queries != res.Completed+res.Rejected+res.Failed {
			o.problem("sim-steady chunk %d: generated %d != completed %d + rejected %d + failed %d",
				i, res.Queries, res.Completed, res.Rejected, res.Failed)
		}
		rates = append(rates, float64(res.TaskWait.Count())/end.Sub(start).Seconds())
		if i == 0 {
			first = res // kept out of the arena: the sharded run is compared against it
		} else {
			se.arena.Release(res)
		}
		if !time.Now().Before(deadline) {
			return rates, first, nil
		}
	}
}

// overheadFrac is the traced run's cost: how far the median of the odd
// (traced) samples of a throughput series falls below the median of the
// even (untraced) ones, as a share of the latter.
func overheadFrac(series []float64) float64 {
	var plain, traced []float64
	for i, v := range series {
		if i%2 == 1 {
			traced = append(traced, v)
		} else {
			plain = append(plain, v)
		}
	}
	if len(traced) == 0 {
		return 0
	}
	return (median(plain) - median(traced)) / median(plain)
}

// attainment is the share of recorded queries that finished within
// their class's SLO.
func attainment(res *cluster.Result, classes *workload.ClassSet) (float64, error) {
	var within, total int
	for _, c := range classes.Classes() {
		r := res.ByClass.Recorder(c.ID)
		if r == nil {
			continue
		}
		for _, v := range r.Samples() {
			if v <= c.SLOMs {
				within++
			}
		}
		total += r.Count()
	}
	if total == 0 {
		return 0, fmt.Errorf("benchmark: no query latencies recorded")
	}
	return float64(within) / float64(total), nil
}

// simLatencies fills the three latency metrics from a simulated run.
// They are in simulated milliseconds: what the scheduler did to the
// queries, not how fast the host simulated it.
func simLatencies(res *cluster.Result, classes *workload.ClassSet, o *outcome) error {
	p50, err := res.Overall.Quantile(0.5)
	if err != nil {
		return err
	}
	p99, err := res.Overall.P99()
	if err != nil {
		return err
	}
	att, err := attainment(res, classes)
	if err != nil {
		return err
	}
	o.set("query_p50_ms", p50)
	o.set("query_p99_ms", p99)
	o.set("slo_attainment", att)
	o.notef("simulated latencies over %d queries", res.Overall.Count())
	return nil
}

func runSimSteady(e *env) (*outcome, error) {
	o := newOutcome()
	var se *steadyEnv
	err := e.setup(o, func() (err error) { se, err = steadySetup(e); return err }, nil)
	if err != nil {
		return nil, err
	}
	mem := markMem()

	rates, first, err := steadyChunks(e, se, e.tr.lane("sim-steady"), o)
	if err != nil {
		return nil, err
	}
	if e.trace {
		o.set("bench.trace_overhead_frac", overheadFrac(rates))
	}
	o.setGC(mem.since())

	tasksPerS := median(rates)
	o.set("tasks_per_s", tasksPerS)
	o.set("cluster.ns_per_task", 1e9/tasksPerS)
	o.notef("%d chunks of %d queries", len(rates), first.Queries)
	// What the timed chunks left unreachable is collected first, so the
	// process's peak memory does not depend on where the last GC cycle
	// happened to fall.
	runtime.GC()
	// Sequential ≡ sharded: the same scenario on the sharded core must
	// give a bit-identical Result. Compared before any quantile is read:
	// a recorder sorts its samples on the first query, and Equal compares
	// them in recorded order.
	shards := max(2, e.nproc)
	cfg, err := se.scenario(parallel.DeriveSeed(e.seed, 0), first.Queries, shards).Build()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sharded, err := cluster.Run(cfg)
	shardedS := time.Since(start).Seconds()
	o.attempted++
	if err != nil {
		o.failed++
		return nil, err
	}
	equal := 1.0
	if err := first.Equal(sharded); err != nil {
		equal = 0
		o.problem("sim-steady: sharded (%d) result differs from sequential: %v", shards, err)
	}
	o.set("cluster.sharded_equal", equal)
	// No speed-up is quoted from one core: parallel scaling is
	// impossible there by construction (the rule tools/benchjson applies).
	if e.gomaxprocs > 1 {
		o.set("cluster.sharded_speedup", float64(sharded.TaskWait.Count())/shardedS/tasksPerS)
	}
	if err := simLatencies(first, se.classes, o); err != nil {
		return nil, err
	}
	_, margin, err := first.MeetsSLOs(se.classes, steadyMinSamples)
	if err != nil {
		return nil, err
	}
	o.set("sim_p99_over_slo", margin)
	if margin > 1 {
		o.problem("sim-steady: worst type's p99 is %.4f of its SLO at load %.2f, must be <= 1", margin, steadyLoad)
	}

	if e.trace {
		if err := steadyLayers(e, se, first.Queries, tasksPerS, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// --- sim-sweep ------------------------------------------------------------

var (
	sweepSLOs       = []float64{0.75, 1.0, 1.5, 2.0}
	sweepReplicates = 4
	// sweepVerifySLO is the row whose reported max load the verification
	// run is driven at.
	sweepVerifySLO = 1.0
)

func (e *env) sweepFidelity(seed int64, workers int) experiment.Fidelity {
	return experiment.Fidelity{
		Queries: e.size(8000, 4000), Warmup: e.size(800, 400), MinSamples: e.size(30, 15),
		LoadTol: 0.04, Seed: seed, Workers: workers,
	}
}

func (e *env) sweepSLOList() []float64 {
	if e.tiny {
		return sweepSLOs[1:2]
	}
	return sweepSLOs
}

func (e *env) sweepReps() int { return e.size(sweepReplicates, 2) }

// sweepOnce runs one replicated Fig. 4 sweep and checks its rows: two
// per SLO, TailGuard first, then FIFO. A max load is known only to the
// search's resolution, so TailGuard counts as below FIFO when it is
// lower by more than one bisection step.
func sweepOnce(e *env, seed int64, workers int, o *outcome) (*experiment.Table, error) {
	slos, fid := e.sweepSLOList(), e.sweepFidelity(seed, workers)
	tbl, err := experiment.Fig4Replicated(fid, []string{"masstree"}, map[string][]float64{"masstree": slos}, e.sweepReps())
	o.attempted++
	if err != nil {
		o.failed++
		return nil, err
	}
	if len(tbl.Raw) != 2*len(slos) {
		return nil, fmt.Errorf("benchmark: sweep returned %d rows, want %d", len(tbl.Raw), 2*len(slos))
	}
	for r := 0; r < len(tbl.Raw); r += 2 {
		tg, fifo := tbl.Raw[r]["max_load"], tbl.Raw[r+1]["max_load"]
		if tg < fifo-fid.LoadTol {
			o.problem("sim-sweep seed %d SLO %v: TailGuard max load %.4f below FIFO %.4f", seed, tbl.Raw[r]["slo_ms"], tg, fifo)
		}
	}
	return tbl, nil
}

// sweepLoop repeats the sweep, each time on a seed derived from the
// run's, until the time is up. Sweep 0 always runs on the same derived
// seed, so the numbers read off it repeat exactly for a seed. As in
// steadyChunks, only odd sweeps record spans.
func sweepLoop(e *env, traced *lane, o *outcome) (walls []float64, first *experiment.Table, err error) {
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		var l *lane
		if i%2 == 1 {
			l = traced
		}
		start := time.Now()
		tbl, err := sweepOnce(e, parallel.DeriveSeed(e.seed, i), e.nproc, o)
		end := time.Now()
		l.add("experiment.Fig4Replicated", start, end, -1, int64(i))
		if err != nil {
			return nil, nil, err
		}
		walls = append(walls, end.Sub(start).Seconds())
		if i == 0 {
			first = tbl
		}
		if !time.Now().Before(deadline) {
			return walls, first, nil
		}
	}
}

// sweepNominalTasks is the work one sweep stands for: every max-load
// search bisects [0.05, 0.95] to LoadTol, which is two end probes plus
// the bisection steps, each probe simulating Queries queries. Probes a
// parallel search runs speculatively are not counted, so the figure is
// the same at every worker count.
func (e *env) sweepNominalTasks(meanTasks float64) float64 {
	fid := e.sweepFidelity(0, 1)
	b := experiment.DefaultMaxLoadBounds
	probes := 2 + math.Ceil(math.Log2((b.Hi-b.Lo)/fid.LoadTol))
	searches := float64(2 * len(e.sweepSLOList()) * e.sweepReps())
	return searches * probes * float64(fid.Queries) * meanTasks
}

func sweepScenario(e *env, spec core.Spec, sloMs, load float64, fid experiment.Fidelity) (experiment.Scenario, error) {
	w, err := dist.TailbenchWorkload("masstree")
	if err != nil {
		return experiment.Scenario{}, err
	}
	fan, err := workload.NewInverseProportional(experiment.PaperFanouts)
	if err != nil {
		return experiment.Scenario{}, err
	}
	classes, err := workload.SingleClass(sloMs)
	if err != nil {
		return experiment.Scenario{}, err
	}
	return experiment.Scenario{
		Workload: w, Servers: 100, Spec: spec, Fanout: fan, Classes: classes, Load: load, Fidelity: fid,
	}, nil
}

func runSimSweep(e *env) (*outcome, error) {
	o := newOutcome()
	// Set-up is a cut-down sweep: it fills the arena pool and touches
	// every code path the timed sweeps use.
	err := e.setup(o, func() error {
		fid := experiment.Fidelity{Queries: e.size(4000, 500), Warmup: e.size(400, 50), MinSamples: 5, LoadTol: 0.1, Seed: e.seed, Workers: e.nproc}
		_, err := experiment.Fig4Replicated(fid, []string{"masstree"}, map[string][]float64{"masstree": {sweepVerifySLO}}, 2)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	mem := markMem()

	walls, first, err := sweepLoop(e, e.tr.lane("sim-sweep"), o)
	if err != nil {
		return nil, err
	}
	if e.trace {
		perS := make([]float64, len(walls))
		for i, w := range walls {
			perS[i] = 1 / w
		}
		o.set("bench.trace_overhead_frac", overheadFrac(perS))
	}
	o.setGC(mem.since())

	wall := median(walls)
	sc, err := sweepScenario(e, core.TFEDFQ, sweepVerifySLO, 0.3, e.sweepFidelity(e.seed, 1))
	if err != nil {
		return nil, err
	}
	o.set("sweep_wall_s", wall)
	o.set("tasks_per_s", e.sweepNominalTasks(sc.Fanout.MeanTasks())/wall)
	o.notef("%d sweeps, median %.3f s", len(walls), wall)

	var tg, fifo, verifyLoad float64
	for r := 0; r < len(first.Raw); r += 2 {
		tg += first.Raw[r]["max_load"]
		fifo += first.Raw[r+1]["max_load"]
		if first.Raw[r]["slo_ms"] == sweepVerifySLO {
			verifyLoad = first.Raw[r]["max_load"]
		}
	}
	rows := float64(len(first.Raw) / 2)
	o.set("maxload_tfedfq", tg/rows)
	if fifo > 0 {
		o.set("maxload_gain_vs_fifo", tg/fifo)
	}
	if verifyLoad <= 0 {
		return nil, fmt.Errorf("benchmark: sweep reports no load meeting the %v ms SLO", sweepVerifySLO)
	}

	// Verification run: TailGuard driven at the max load the sweep
	// reported. Its simulated latencies are what a user of that headline
	// number would get.
	sc.Load = verifyLoad
	sc.Fidelity.Queries, sc.Fidelity.Warmup = e.size(200_000, 5000), e.size(10_000, 500)
	res, err := sc.Run()
	o.attempted++
	if err != nil {
		o.failed++
		return nil, err
	}
	if err := simLatencies(res, sc.Classes, o); err != nil {
		return nil, err
	}
	if e.trace {
		if err := sweepLayers(e, first, wall, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}
