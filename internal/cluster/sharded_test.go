package cluster

import (
	"reflect"
	"testing"

	"tailguard/internal/core"
	"tailguard/internal/dist"
	"tailguard/internal/fault"
	"tailguard/internal/obs"
	"tailguard/internal/workload"
)

// shardedConfig builds a sequential-vs-sharded comparison config with
// continuous arrival/service distributions (the bit-identity contract
// requires that cross-stream event-time ties have measure zero; see
// DESIGN.md §13).
func shardedConfig(t *testing.T, spec core.Spec, servers, queries, warmup int, seed int64, plan *fault.Plan) Config {
	t.Helper()
	classes, err := workload.SingleClass(50)
	if err != nil {
		t.Fatalf("SingleClass: %v", err)
	}
	arrival, err := workload.NewPoisson(2.0) // queries/ms
	if err != nil {
		t.Fatalf("NewPoisson: %v", err)
	}
	fanout, err := workload.NewWeighted([]int{1, 2, 4, 8}, []float64{1, 2, 2, 1})
	if err != nil {
		t.Fatalf("NewWeighted: %v", err)
	}
	svc := dist.Exponential{M: 1.5}
	cfg := buildConfig(t, spec, svc, servers, arrival, fanout, classes, queries, warmup, seed)
	if plan != nil {
		cfg.Faults = fault.MustEngine(plan, servers)
	}
	return cfg
}

// canonicalShardPlan exercises every fault kind inside the simulated
// horizon of a ~200 ms run: slowdown, stall, crash (losing queues and
// in-flight tasks), transport delay and transport drop.
func canonicalShardPlan() *fault.Plan {
	return &fault.Plan{Seed: 11, Faults: []fault.Fault{
		{Kind: fault.Slowdown, Server: 1, StartMs: 10, EndMs: 60, Factor: 4},
		{Kind: fault.Stall, Server: 2, StartMs: 20, EndMs: 35},
		{Kind: fault.Crash, Server: 3, StartMs: 30, EndMs: 70},
		{Kind: fault.Crash, Server: 5, StartMs: 40, EndMs: 55},
		{Kind: fault.TransportDelay, Server: 6, StartMs: 15, EndMs: 90, DelayMs: 0.8},
		{Kind: fault.TransportDrop, Server: 7, StartMs: 25, EndMs: 80, DropProb: 0.5},
	}}
}

// runPair runs cfg sequentially and with the given shard count (each on a
// fresh generator, since sources are stateful) and returns both results.
func runPair(t *testing.T, build func() Config, shards int) (*Result, *Result) {
	t.Helper()
	seq, err := Run(build())
	if err != nil {
		t.Fatalf("sequential Run: %v", err)
	}
	cfg := build()
	cfg.Shards = shards
	par, err := Run(cfg)
	if err != nil {
		t.Fatalf("sharded Run (shards=%d): %v", shards, err)
	}
	return seq, par
}

// TestShardedMatchesSequentialMatrix is the golden equivalence matrix:
// across seeds, policies, fault plans and shard counts, the sharded core
// must produce a Result bit-identical to the sequential engine.
func TestShardedMatchesSequentialMatrix(t *testing.T) {
	specs := []core.Spec{core.TFEDFQ, core.FIFO, core.PRIQ}
	plans := map[string]func() *fault.Plan{
		"baseline": func() *fault.Plan { return nil },
		"faults":   canonicalShardPlan,
	}
	for _, spec := range specs {
		for planName, plan := range plans {
			for _, seed := range []int64{1, 2, 3} {
				seq, err := Run(shardedConfig(t, spec, 16, 400, 50, seed, plan()))
				if err != nil {
					t.Fatalf("%s/%s/seed=%d sequential: %v", spec.Name, planName, seed, err)
				}
				for _, shards := range []int{2, 4, 8} {
					cfg := shardedConfig(t, spec, 16, 400, 50, seed, plan())
					cfg.Shards = shards
					par, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s/%s/seed=%d/shards=%d: %v", spec.Name, planName, seed, shards, err)
					}
					if err := seq.Equal(par); err != nil {
						t.Errorf("%s/%s/seed=%d/shards=%d diverges: %v", spec.Name, planName, seed, shards, err)
					}
				}
			}
		}
	}
}

// TestShardedWindowWidthInvariance: the window width trades barrier
// frequency against batch size and must never change the Result.
func TestShardedWindowWidthInvariance(t *testing.T) {
	build := func() Config {
		return shardedConfig(t, core.TFEDFQ, 16, 300, 20, 7, canonicalShardPlan())
	}
	seq, err := Run(build())
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	for _, w := range []float64{0.05, 1, 7.3, 500} {
		cfg := build()
		cfg.Shards = 4
		cfg.ShardWindowMs = w
		par, err := Run(cfg)
		if err != nil {
			t.Fatalf("window=%v: %v", w, err)
		}
		if err := seq.Equal(par); err != nil {
			t.Errorf("window=%v diverges: %v", w, err)
		}
	}
}

// TestShardedFailureWindows: paused-server outage windows (Config.Failures)
// behave identically sharded.
func TestShardedFailureWindows(t *testing.T) {
	build := func() Config {
		cfg := shardedConfig(t, core.FIFO, 8, 300, 0, 5, nil)
		cfg.Failures = []Failure{{Server: 2, Start: 10, End: 60}, {Server: 5, Start: 30, End: 40}}
		return cfg
	}
	seq, par := runPair(t, build, 4)
	if err := seq.Equal(par); err != nil {
		t.Errorf("failure windows diverge: %v", err)
	}
}

// TestShardedPerServerDispatchDelay: under per-server queuing the dispatch
// delay is sampled at arrival time (pump-side), so it shards cleanly.
func TestShardedPerServerDispatchDelay(t *testing.T) {
	build := func() Config {
		cfg := shardedConfig(t, core.TFEDFQ, 12, 300, 30, 9, nil)
		cfg.Queuing = PerServerQueuing
		cfg.DispatchDelay = dist.Uniform{Lo: 0.01, Hi: 0.4}
		return cfg
	}
	seq, par := runPair(t, build, 3)
	if err := seq.Equal(par); err != nil {
		t.Errorf("per-server dispatch delay diverges: %v", err)
	}
}

// TestShardedTimelineAndAttribution: the timeline recorders and the
// miss-attribution report survive sharding bit-identically.
func TestShardedTimelineAndAttribution(t *testing.T) {
	build := func() Config {
		cfg := shardedConfig(t, core.TFEDFQ, 16, 400, 40, 4, canonicalShardPlan())
		cfg.TimelineBucketMs = 25
		cfg.Attribution = obs.NewAttributor()
		return cfg
	}
	seqCfg := build()
	seq, err := Run(seqCfg)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	parCfg := build()
	parCfg.Shards = 4
	par, err := Run(parCfg)
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	if err := seq.Equal(par); err != nil {
		t.Errorf("timeline run diverges: %v", err)
	}
	seqRep, parRep := seqCfg.Attribution.Report(), parCfg.Attribution.Report()
	if !reflect.DeepEqual(seqRep, parRep) {
		t.Errorf("attribution reports diverge:\nseq: %+v\npar: %+v", seqRep, parRep)
	}
}

// TestShardedArenaReuse: a reused arena must replay bit-identically across
// repeated sharded runs and across shard-count changes.
func TestShardedArenaReuse(t *testing.T) {
	build := func() Config { return shardedConfig(t, core.FIFO, 16, 300, 20, 2, canonicalShardPlan()) }
	seq, err := Run(build())
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	arena := NewArena()
	for run := 0; run < 3; run++ {
		for _, shards := range []int{4, 2} {
			cfg := build()
			cfg.Shards = shards
			cfg.Arena = arena
			par, err := Run(cfg)
			if err != nil {
				t.Fatalf("run %d shards=%d: %v", run, shards, err)
			}
			if err := seq.Equal(par); err != nil {
				t.Errorf("run %d shards=%d diverges: %v", run, shards, err)
			}
			arena.Release(par)
		}
	}
}

// TestShardedRejectsUnsupportedFeatures pins the clear-error contract for
// every feature the sharded core refuses.
func TestShardedRejectsUnsupportedFeatures(t *testing.T) {
	base := func() Config {
		cfg := shardedConfig(t, core.FIFO, 8, 50, 0, 1, nil)
		cfg.Shards = 2
		return cfg
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"admission", func(c *Config) {
			ac, err := core.NewAdmissionController(10, 0.1)
			if err != nil {
				t.Fatalf("NewAdmissionController: %v", err)
			}
			c.Admission = ac
		}},
		{"estimator", func(c *Config) { c.Estimator = &core.TailEstimator{} }},
		{"completion hook", func(c *Config) {
			c.OnQueryDone = func(workload.Query, float64, float64) []workload.Query { return nil }
		}},
		{"hedging", func(c *Config) { c.Resilience = fault.Resilience{Hedge: true} }},
		{"retries", func(c *Config) { c.Resilience = fault.Resilience{RetryBudget: 1} }},
		{"tracing", func(c *Config) { c.Obs = &obs.Tracer{} }},
		{"central dispatch delay", func(c *Config) { c.DispatchDelay = dist.Uniform{Lo: 0.1, Hi: 0.2} }},
		{"early stop", func(c *Config) {
			c.EarlyStop = &EarlyStop{Stride: 9, Checks: []SLOCheck{{SLOMs: []float64{50}, Quota: make([]int32, 9)}}}
		}},
		{"more shards than servers", func(c *Config) { c.Shards = 9 }},
		{"negative shards", func(c *Config) { c.Shards = -1 }},
		{"negative window", func(c *Config) { c.ShardWindowMs = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("Run succeeded, want a clear sharded-mode error")
			}
		})
	}
	// Shards <= 1 selects the sequential engine and accepts everything.
	cfg := base()
	cfg.Shards = 1
	cfg.Obs = obs.NewTracer(obs.TracerConfig{})
	if _, err := Run(cfg); err != nil {
		t.Errorf("Shards=1 must use the sequential path: %v", err)
	}
}

// TestShardedBarrierStress hammers the window barrier with a tiny window
// (thousands of barriers), the full fault plan and the maximum shard
// fan-out; run under -race this pins the protocol's happens-before edges.
func TestShardedBarrierStress(t *testing.T) {
	arena := NewArena()
	for run := 0; run < 3; run++ {
		cfg := shardedConfig(t, core.TFEDFQ, 16, 800, 0, int64(run), canonicalShardPlan())
		cfg.Shards = 8
		cfg.ShardWindowMs = 0.05
		cfg.Arena = arena
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if res.Completed == 0 {
			t.Fatalf("run %d completed no queries", run)
		}
		arena.Release(res)
	}
}
