package experiment

import (
	"fmt"

	"tailguard/internal/cluster"
	"tailguard/internal/core"
	"tailguard/internal/dist"
	"tailguard/internal/workload"
)

// ShardScaleServers is the stock cluster size for the shard-scaling
// experiment: the 10k-server scale the ROADMAP's policy-zoo and DAG
// workloads need (paired with ~10M queries at full fidelity, see
// BenchmarkShardedClusterThroughput).
const ShardScaleServers = 10000

// ShardScaleScenario is the stock scenario the shard-scaling experiment
// and BenchmarkShardedClusterThroughput share: Masstree service times,
// OLDI fanouts 1/10/100, one 1 ms SLO class, TailGuard queues at 40%
// load. Continuous arrival and service distributions keep cross-stream
// event-time ties at measure zero, which is what the bit-identity
// contract requires (DESIGN.md §13).
func ShardScaleScenario(fid Fidelity, servers, shards int) (Scenario, error) {
	w, err := dist.TailbenchWorkload("masstree")
	if err != nil {
		return Scenario{}, err
	}
	fan, err := workload.NewInverseProportional([]int{1, 10, 100})
	if err != nil {
		return Scenario{}, err
	}
	classes, err := workload.SingleClass(1.0)
	if err != nil {
		return Scenario{}, err
	}
	return Scenario{
		Workload: w,
		Servers:  servers,
		Spec:     core.TFEDFQ,
		Fanout:   fan,
		Classes:  classes,
		Load:     0.40,
		Fidelity: fid,
		Shards:   shards,
	}, nil
}

// ShardScale runs the stock scenario once on the sequential engine and
// once per requested shard count on the sharded parallel core, and gates
// every sharded run on bit-identity with the sequential result
// (cluster.Result.Equal — any divergence is an error, which is what
// TestShardScaleEquivalenceGate relies on). servers <= 0 selects the stock
// ShardScaleServers; an empty counts slice selects 2/4/8.
//
// wall supplies monotonic wall-clock seconds for the wall_s/tasks/s/
// speedup columns; this package is virtual-time (forbidcall's simclock
// row) so the caller injects the measurement — cmd/tgsim passes a time.Since closure. A nil
// wall omits the measurements ("-" cells), leaving a fully deterministic
// table; the identical column is the gate either way.
func ShardScale(fid Fidelity, servers int, counts []int, wall func() float64) (*Table, error) {
	if servers <= 0 {
		servers = ShardScaleServers
	}
	if len(counts) == 0 {
		counts = []int{2, 4, 8}
	}
	run := func(shards int) (*cluster.Result, float64, error) {
		s, err := ShardScaleScenario(fid, servers, shards)
		if err != nil {
			return nil, 0, err
		}
		var start float64
		if wall != nil {
			start = wall()
		}
		res, err := s.Run()
		if err != nil {
			return nil, 0, fmt.Errorf("shardscale shards=%d: %w", shards, err)
		}
		var elapsed float64
		if wall != nil {
			elapsed = wall() - start
		}
		return res, elapsed, nil
	}
	seq, seqWall, err := run(0)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "shardscale",
		Title: fmt.Sprintf("Sharded core vs sequential: %d servers, %d queries (Masstree, fanouts 1/10/100, load 40%%)",
			servers, fid.Queries),
		Columns: []string{"shards", "wall_s", "tasks/s", "speedup", "identical"},
	}
	sc, err := ShardScaleScenario(fid, servers, 0)
	if err != nil {
		return nil, err
	}
	tasks := float64(seq.Completed) * sc.Fanout.MeanTasks()
	addRow := func(label string, elapsed, speedup float64, identical string) {
		raw := map[string]float64{}
		wallS, rate, sp := "-", "-", "-"
		if wall != nil && elapsed > 0 {
			wallS, rate, sp = f2(elapsed), humanRate(tasks/elapsed), f2(speedup)
			raw["wall_s"], raw["tasks/s"], raw["speedup"] = elapsed, tasks/elapsed, speedup
		}
		t.Rows = append(t.Rows, []string{label, wallS, rate, sp, identical})
		t.Raw = append(t.Raw, raw)
	}
	addRow("1 (sequential)", seqWall, 1.0, "-")
	for _, shards := range counts {
		par, elapsed, err := run(shards)
		if err != nil {
			return nil, err
		}
		if err := seq.Equal(par); err != nil {
			return nil, fmt.Errorf("shardscale shards=%d diverges from sequential: %w", shards, err)
		}
		addRow(fmt.Sprintf("%d", shards), elapsed, seqWall/elapsed, "yes")
	}
	return t, nil
}

// humanRate renders a rate compactly (1.23M, 456k, 789).
func humanRate(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
