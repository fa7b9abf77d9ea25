package main

import (
	"fmt"
	"math/rand"
	"time"

	"tailguard/internal/cluster"
	"tailguard/internal/core"
	"tailguard/internal/experiment"
	"tailguard/internal/metrics"
	"tailguard/internal/parallel"
	"tailguard/internal/policy"
	"tailguard/internal/sim"
	"tailguard/internal/workload"
)

// Isolation replays: each layer of the simulator is driven alone, from
// outside, through its public functions, over the operations the
// workload makes it do. The traced run records one span per replay.

const replayReps = 3

// steadyLayers measures the simulator's child layers and subtracts them,
// weighted by how often one task exercises each, from cluster.Run's time
// per task. What is left is cluster's own bookkeeping.
func steadyLayers(e *env, se *steadyEnv, queries int, tasksPerS float64, o *outcome) error {
	l := e.tr.lane("replay")
	meanTasks := se.fan.MeanTasks()
	sc := se.scenario(parallel.DeriveSeed(e.seed, 0), queries, 0)

	// workload: the generator replayed alone over the chunk's queries.
	var genErr error
	l.timed("replay workload.Generator", -1, -1, func() {
		o.set("workload.gen_ns_per_query", bestOf(replayReps, func() float64 {
			cfg, err := sc.Build()
			if err != nil {
				genErr = err
				return 0
			}
			gen, ok := cfg.Generator.(*workload.Generator)
			if !ok {
				genErr = fmt.Errorf("benchmark: scenario generator is %T, want *workload.Generator", cfg.Generator)
				return 0
			}
			return perOp(queries, func() {
				for range queries {
					q, _ := gen.Next()
					gen.Recycle(q.Servers)
				}
			})
		}))
	})
	if genErr != nil {
		return genErr
	}

	// dist: one service-time draw per task.
	nTasks := int(float64(queries) * meanTasks)
	l.timed("replay dist.Sample", -1, -1, func() {
		rng := rand.New(rand.NewSource(e.seed))
		sink := 0.0
		o.set("dist.sample_ns_per_task", bestOf(replayReps, func() float64 {
			return perOp(nTasks, func() {
				for range nTasks {
					sink += se.w.ServiceTime.Sample(rng)
				}
			})
		}))
		_ = sink
	})

	if err := coreLayers(e, se, l, queries, o); err != nil {
		return err
	}

	// policy: Push + Pop on an EDF queue held at a fixed depth.
	for _, depth := range []int{8, 512} {
		name := fmt.Sprintf("policy.edf_ns_per_op_d%d", depth)
		var qErr error
		l.timed("replay policy.Queue", -1, -1, func() {
			q, err := policy.New(policy.EDF)
			if err != nil {
				qErr = err
				return
			}
			tasks := make([]policy.Task, depth+1)
			rng := rand.New(rand.NewSource(e.seed))
			for i := 0; i < depth; i++ {
				tasks[i].Deadline = rng.Float64()
				q.Push(&tasks[i])
			}
			spare := &tasks[depth]
			ops := e.size(2_000_000, 20_000)
			o.set(name, bestOf(replayReps, func() float64 {
				now := 0.0
				return perOp(ops, func() {
					for range ops {
						now += 1.0 / float64(depth)
						spare.Deadline = now + rng.Float64()
						q.Push(spare)
						spare = q.Pop()
					}
				})
			}))
		})
		if qErr != nil {
			return qErr
		}
	}

	// sim: ScheduleCallAfter + Step at the depth the workload holds the
	// engine at — one completion per busy server plus the next arrival —
	// with service-time delays, so the figure can be subtracted from
	// cluster.Run's.
	pending := int(steadyServers*steadyLoad) + 1
	for _, eng := range []struct {
		name string
		mk   func() *sim.Engine
	}{{"sim.wheel_event_ns", sim.NewEngine}, {"sim.heap_event_ns", sim.NewHeapEngine}} {
		var sErr error
		l.timed("replay sim.Engine", -1, -1, func() {
			en := eng.mk()
			rng := rand.New(rand.NewSource(e.seed))
			noop := func(any, float64) {}
			delays := make([]float64, 4096) // drawn up front: the draw is dist's cost, not sim's
			for i := range delays {
				delays[i] = se.w.ServiceTime.Sample(rng)
			}
			for i := range pending {
				if err := en.ScheduleCallAfter(delays[i], noop, nil, 0); err != nil {
					sErr = err
					return
				}
			}
			ops := e.size(2_000_000, 20_000)
			o.set(eng.name, bestOf(replayReps, func() float64 {
				return perOp(ops, func() {
					for i := range ops {
						if err := en.ScheduleCallAfter(delays[i%len(delays)], noop, nil, 0); err != nil {
							sErr = err
							return
						}
						en.Step()
					}
				})
			}))
		})
		if sErr != nil {
			return sErr
		}
	}

	// metrics: Observe per sample, then the final sort at the run's
	// sample count.
	var mErr error
	l.timed("replay metrics.LatencyRecorder", -1, -1, func() {
		rng := rand.New(rand.NewSource(e.seed))
		samples := make([]float64, queries)
		for i := range samples {
			samples[i] = rng.Float64()
		}
		rec := metrics.NewLatencyRecorder(queries)
		fill := func() float64 {
			rec.Reset()
			return perOp(queries, func() {
				for _, v := range samples {
					if err := rec.Observe(v); err != nil {
						mErr = err
						return
					}
				}
			})
		}
		o.set("metrics.observe_ns", bestOf(replayReps, fill))
		o.set("metrics.quantile_ms", bestOf(replayReps, func() float64 {
			fill()
			start := time.Now()
			if _, err := rec.P99(); err != nil {
				mErr = err
			}
			return ms(time.Since(start))
		}))
	})
	if mErr != nil {
		return mErr
	}

	// cluster: allocation cost of one arena-warm chunk.
	cfg, err := sc.Build()
	if err != nil {
		return err
	}
	cfg.Arena = se.arena
	mem := markMem()
	var res *cluster.Result
	l.timed("cluster.Run (allocs)", -1, -1, func() { res, err = cluster.Run(cfg) })
	d := mem.since()
	if err != nil {
		return err
	}
	tasks := float64(res.TaskWait.Count())
	se.arena.Release(res)
	o.set("cluster.allocs_per_task", d.mallocs/tasks)
	o.set("cluster.bytes_per_task", d.bytes/tasks)

	// One task costs cluster.Run: its share of a generated query and of
	// that query's deadline, a service-time draw, a queue push and pop,
	// its completion event plus a share of the arrival event, and its
	// wait sample plus a share of the query's four latency samples.
	perQuery := 1 / meanTasks
	children := o.m["workload.gen_ns_per_query"]*perQuery +
		o.m["core.budget_hit_ns"]*perQuery +
		o.m["dist.sample_ns_per_task"] +
		o.m["policy.edf_ns_per_op_d8"] +
		o.m["sim.wheel_event_ns"]*(1+perQuery) +
		o.m["metrics.observe_ns"]*(1+4*perQuery)
	o.set("cluster.self_ns_per_task", 1e9/tasksPerS-children)
	return nil
}

// coreLayers measures deadline estimation: the warm lookup the
// simulator does per query, the cold first lookup per (class, fanout) a
// fresh probe pays, building the estimator, and admission's per-task
// cost.
func coreLayers(e *env, se *steadyEnv, l *lane, queries int, o *outcome) error {
	mk := func() (*core.Deadliner, error) {
		est, err := core.NewHomogeneousStaticTailEstimator(se.w.ServiceTime, steadyServers)
		if err != nil {
			return nil, err
		}
		return core.NewDeadliner(core.TFEDFQ, est, se.classes)
	}
	type key struct{ class, fanout int }
	var keys []key
	for _, c := range se.classes.Classes() {
		for _, k := range se.fan.Support() {
			keys = append(keys, key{c.ID, k})
		}
	}
	var cErr error
	l.timed("replay core.Deadliner", -1, -1, func() {
		var dl *core.Deadliner
		o.set("core.estimator_build_ms", bestOf(replayReps, func() float64 {
			start := time.Now()
			dl, cErr = mk()
			return ms(time.Since(start))
		}))
		if cErr != nil {
			return
		}
		o.set("core.budget_cold_us", bestOf(replayReps, func() float64 {
			fresh, err := mk()
			if err != nil {
				cErr = err
				return 0
			}
			return perOp(len(keys), func() {
				for _, k := range keys {
					if _, err := fresh.Budget(k.class, k.fanout); err != nil {
						cErr = err
					}
				}
			}) / 1e3
		}))
		o.set("core.budget_hit_ns", bestOf(replayReps, func() float64 {
			return perOp(queries, func() {
				for i := range queries {
					k := keys[i%len(keys)]
					if _, err := dl.Deadline(float64(i), k.class, k.fanout); err != nil {
						cErr = err
					}
				}
			})
		}))
	})
	if cErr != nil {
		return cErr
	}
	l.timed("replay core.AdmissionController", -1, -1, func() {
		adm, err := core.NewAdmissionController(100, 0.02)
		if err != nil {
			cErr = err
			return
		}
		ops := e.size(2_000_000, 20_000)
		o.set("core.admission_ns_per_task", bestOf(replayReps, func() float64 {
			adm.Reset()
			return perOp(ops, func() {
				for i := range ops {
					now := float64(i) * 0.001
					adm.ObserveTask(i%128 == 0, now)
					adm.Admit(now)
				}
			})
		}))
	})
	return cErr
}

// sweepLayers takes the sweep apart: the same sweep on one worker (the
// parallel harness's speed-up), then every max-load search replayed
// probe by probe with Scenario.Build and cluster.Run timed separately.
func sweepLayers(e *env, first *experiment.Table, parallelWall float64, o *outcome) error {
	l := e.tr.lane("replay")
	seed0 := parallel.DeriveSeed(e.seed, 0)

	var seq *experiment.Table
	var err error
	start := time.Now()
	seq, err = sweepOnce(e, seed0, 1, o)
	end := time.Now()
	l.add("experiment.Fig4Replicated workers=1", start, end, -1, -1)
	if err != nil {
		return err
	}
	for r := range first.Raw {
		if seq.Raw[r]["max_load"] != first.Raw[r]["max_load"] {
			o.problem("sim-sweep row %d: max load %.6f on 1 worker, %.6f on %d", r, seq.Raw[r]["max_load"], first.Raw[r]["max_load"], e.nproc)
		}
	}
	o.set("parallel.workers", float64(e.nproc))
	if e.gomaxprocs > 1 {
		o.set("parallel.speedup", end.Sub(start).Seconds()/parallelWall)
	}

	var probeMs []float64
	var buildS, probeS float64
	fid := e.sweepFidelity(seed0, 1)
	arena := cluster.NewArena()
	for _, slo := range e.sweepSLOList() {
		for _, spec := range []core.Spec{core.TFEDFQ, core.FIFO} {
			for rep := range e.sweepReps() {
				f := fid
				f.Seed = parallel.DeriveSeed(fid.Seed, rep)
				sc, err := sweepScenario(e, spec, slo, 0.3, f)
				if err != nil {
					return err
				}
				search, from := time.Now(), l.len()
				_, err = experiment.MaxLoad(experiment.DefaultMaxLoadBounds, f.LoadTol, func(load float64) (bool, error) {
					sc.Load = load
					p0 := time.Now()
					cfg, err := sc.Build()
					p1 := time.Now()
					if err != nil {
						return false, err
					}
					cfg.Arena = arena
					res, err := cluster.Run(cfg)
					p2 := time.Now()
					if err != nil {
						return false, err
					}
					ok, _, err := res.MeetsSLOs(sc.Classes, f.MinSamples)
					arena.Release(res)
					p3 := time.Now()
					// The enclosing search span is added once the search
					// returns and adopts these.
					l.add("Scenario.Build", p0, p1, -1, -1)
					l.add("cluster.Run", p1, p2, -1, -1)
					l.add("Result.MeetsSLOs", p2, p3, -1, -1)
					buildS += p1.Sub(p0).Seconds()
					probeS += p3.Sub(p0).Seconds()
					probeMs = append(probeMs, ms(p3.Sub(p0)))
					return ok, err
				})
				if err != nil {
					return err
				}
				l.adopt("experiment.MaxLoad", search, time.Now(), from)
			}
		}
	}
	o.set("experiment.probes", float64(len(probeMs)))
	o.set("experiment.probe_ms_p50", median(probeMs))
	o.set("experiment.setup_share", buildS/probeS)
	return nil
}
