package experiment

import (
	"fmt"

	"tailguard/internal/cluster"
	"tailguard/internal/core"
	"tailguard/internal/dist"
	"tailguard/internal/parallel"
	"tailguard/internal/policy"
	"tailguard/internal/request"
	"tailguard/internal/workload"
)

// NScale reproduces the Section IV.D note: cluster size N=1000 with four
// service classes (results stated as "consistent" in the paper, not
// plotted). Fanouts 1/10/100/1000 with P ∝ 1/kf; class SLOs spaced from
// baseSLO to 2x baseSLO.
func NScale(fid Fidelity, baseSLOMs float64) (*Table, error) {
	if baseSLOMs <= 0 {
		baseSLOMs = 1.0
	}
	w, err := dist.TailbenchWorkload("masstree")
	if err != nil {
		return nil, err
	}
	fan, err := workload.NewInverseProportional([]int{1, 10, 100, 1000})
	if err != nil {
		return nil, err
	}
	classes, err := classSetForPaper(baseSLOMs, 4, 2.0)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "nscale",
		Title:   "Max load at N=1000, 4 classes, fanouts 1/10/100/1000 (Masstree)",
		Columns: []string{"policy", "max_load"},
	}
	// Rare fanout-1000 queries need more data per probe; the per-type
	// minimum is relaxed accordingly.
	f := fid.scaled(2)
	f.MinSamples = fid.MinSamples / 4
	if f.MinSamples < 20 {
		f.MinSamples = 20
	}
	specs := core.Specs()
	rows := make([]Scenario, len(specs))
	for i, spec := range specs {
		rows[i] = Scenario{
			Workload: w,
			Servers:  1000,
			Spec:     spec,
			Fanout:   fan,
			Classes:  classes,
			Load:     0.3,
			Fidelity: f,
		}
	}
	loads, err := searchMaxLoads(fid.pool(), rows, DefaultMaxLoadBounds)
	if err != nil {
		return nil, fmt.Errorf("nscale: %w", err)
	}
	for i, spec := range specs {
		t.Rows = append(t.Rows, []string{spec.Name, pct(loads[i])})
		t.Raw = append(t.Raw, map[string]float64{"max_load": loads[i]})
	}
	return t, nil
}

// RequestExperiment exercises the request-level decomposition extension
// (Section III.B remark): for each budget-assignment strategy, the maximum
// load at which a 3-query request (fanouts 1/10/100) meets its request
// tail-latency SLO, under TailGuard and FIFO.
func RequestExperiment(fid Fidelity, sloMs float64) (*Table, error) {
	if sloMs <= 0 {
		sloMs = 3.0
	}
	w, err := dist.TailbenchWorkload("masstree")
	if err != nil {
		return nil, err
	}
	plan := request.Plan{Fanouts: []int{1, 10, 100}, SLOMs: sloMs, Percentile: 0.99}
	t := &Table{
		ID:      "request",
		Title:   fmt.Sprintf("Request-level budgets: max load meeting the %.1f ms request SLO (3 sequential queries, fanouts 1/10/100)", sloMs),
		Columns: []string{"policy", "strategy", "max_load"},
	}
	// Requests carry 111 tasks each; scale counts like the OLDI runs.
	requests := fid.Queries / 8
	warmup := fid.Warmup / 8
	if requests < 200 {
		requests = 200
	}
	if warmup >= requests {
		warmup = requests / 10
	}
	type cell struct {
		spec  core.Spec
		strat request.Strategy
	}
	var cells []cell
	for _, spec := range []core.Spec{core.TFEDFQ, core.FIFO} {
		for _, strat := range request.Strategies() {
			cells = append(cells, cell{spec: spec, strat: strat})
		}
	}
	// One lockstep search, a row per cell; no two cells share a probe.
	group := make([]int, len(cells))
	tols := make([]float64, len(cells))
	for i := range cells {
		group[i], tols[i] = i, fid.LoadTol
	}
	loads, bad, err := bisect(fid.pool(), DefaultMaxLoadBounds, tols, group, func(g int, load float64, _ []int) ([]bool, error) {
		c := cells[g]
		res, err := request.Run(request.RunConfig{
			Plan:          plan,
			Servers:       100,
			Spec:          c.spec,
			Service:       w.ServiceTime,
			Strategy:      c.strat,
			Load:          load,
			Requests:      requests,
			Warmup:        warmup,
			Seed:          fid.Seed,
			BudgetSamples: 100000,
		})
		if err != nil {
			return nil, err
		}
		return []bool{res.MeetsSLO}, nil
	})
	if err != nil {
		if bad < 0 {
			return nil, err
		}
		return nil, fmt.Errorf("request %s/%s: %w", cells[bad].spec.Name, cells[bad].strat.Name(), err)
	}
	for i, c := range cells {
		t.Rows = append(t.Rows, []string{c.spec.Name, c.strat.Name(), pct(loads[i])})
		t.Raw = append(t.Raw, map[string]float64{"max_load": loads[i]})
	}
	return t, nil
}

// AblationQueues compares queue disciplines under identical TailGuard
// deadlines at a fixed load: EDF (TailGuard), FIFO, LIFO and SJF, reporting
// the per-fanout p99. It isolates the contribution of deadline *ordering*
// from deadline *computation*.
func AblationQueues(fid Fidelity, load float64) (*Table, error) {
	if load <= 0 {
		load = 0.30
	}
	specs := []core.Spec{
		core.TFEDFQ,
		{Name: "FIFO+deadline", Queue: policy.FIFO, Deadline: core.DeadlineSLOFanout},
		{Name: "LIFO+deadline", Queue: policy.LIFO, Deadline: core.DeadlineSLOFanout},
		{Name: "SJF+deadline", Queue: policy.SJF, Deadline: core.DeadlineSLOFanout},
	}
	t := &Table{
		ID:      "ablation-queues",
		Title:   fmt.Sprintf("Queue-discipline ablation at %.0f%% load (Masstree, single class 0.8 ms)", load*100),
		Columns: []string{"queue", "p99_k1", "p99_k10", "p99_k100", "miss_ratio"},
	}
	type specResult struct {
		p99  [3]float64
		miss float64
	}
	rows, err := singleClassRows("masstree", []float64{0.8}, specs, fid)
	if err != nil {
		return nil, err
	}
	results, err := parallel.Map(fid.pool(), len(specs), func(i int) (specResult, error) {
		spec := specs[i]
		var out specResult
		s := rows[i]
		s.Load = load
		res, err := s.Run()
		if err != nil {
			return out, fmt.Errorf("ablation-queues %s: %w", spec.Name, err)
		}
		out.miss = res.TaskMissRatio
		for ki, k := range PaperFanouts {
			rec := res.ByFanout.Recorder(k)
			if rec == nil {
				return out, fmt.Errorf("ablation-queues: no fanout-%d samples", k)
			}
			p99, err := rec.P99()
			if err != nil {
				return out, err
			}
			out.p99[ki] = p99
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for i, spec := range specs {
		r := results[i]
		row := []string{spec.Name}
		raw := map[string]float64{"miss_ratio": r.miss}
		for ki, k := range PaperFanouts {
			row = append(row, f3(r.p99[ki]))
			raw[fmt.Sprintf("p99_k%d", k)] = r.p99[ki]
		}
		row = append(row, pct(r.miss))
		t.Rows = append(t.Rows, row)
		t.Raw = append(t.Raw, raw)
	}
	return t, nil
}

// AblationHeterogeneity compares three estimator configurations on a
// heterogeneous cluster (half the servers 2x slower): (a) a homogeneous
// estimator wrongly assuming every server is fast, (b) an oracle static
// per-server estimator, and (c) an online-updating estimator seeded with
// the wrong homogeneous model. The measured effect is a consistent but
// modest (~4-8%) fanout-100 tail improvement from accurate per-server
// CDFs, with the online-updated estimator recovering most of the oracle's
// advantage — evidence for the paper's claim that a rough offline
// estimate plus online updating suffices: EDF ordering depends only on
// relative deadlines, so uniform miscalibration largely cancels.
func AblationHeterogeneity(fid Fidelity, load float64) (*Table, error) {
	if load <= 0 {
		load = 0.30
	}
	w, err := dist.TailbenchWorkload("masstree")
	if err != nil {
		return nil, err
	}
	const n = 100
	slow, err := dist.NewScaled(w.ServiceTime, 2)
	if err != nil {
		return nil, err
	}
	perServer := make([]dist.Distribution, n)
	for i := range perServer {
		if i%2 == 0 {
			perServer[i] = w.ServiceTime
		} else {
			perServer[i] = slow
		}
	}
	classes, err := workload.SingleClass(1.6)
	if err != nil {
		return nil, err
	}
	fan, err := workload.NewInverseProportional(PaperFanouts)
	if err != nil {
		return nil, err
	}
	meanSvc := (w.ServiceTime.Mean() + slow.Mean()) / 2
	rate, err := workload.RateForLoad(load, n, fan.MeanTasks(), meanSvc)
	if err != nil {
		return nil, err
	}

	type mode struct {
		name      string
		estimator *core.TailEstimator
		online    bool
		hetero    bool
	}
	wrong, err := core.NewHomogeneousStaticTailEstimator(w.ServiceTime, n)
	if err != nil {
		return nil, err
	}
	oracle, err := core.NewStaticTailEstimator(perServer)
	if err != nil {
		return nil, err
	}
	learned, err := core.NewTailEstimator(n, w.ServiceTime, 2000, 4000)
	if err != nil {
		return nil, err
	}
	modes := []mode{
		{name: "homogeneous-wrong", estimator: wrong},
		{name: "oracle-per-server", estimator: oracle, hetero: true},
		{name: "online-learned", estimator: learned, online: true, hetero: true},
	}

	t := &Table{
		ID:      "ablation-hetero",
		Title:   fmt.Sprintf("Estimator ablation on a half-slow cluster at %.0f%% load (Masstree, SLO 1.6 ms)", load*100),
		Columns: []string{"estimator", "p99_overall", "p99_k100", "slo_met"},
	}
	type modeResult struct {
		overall, k100 float64
		met           bool
	}
	// Each mode owns its estimator (the online one is mutated by its
	// run), so the three runs are independent and fan out cleanly.
	results, err := parallel.Map(fid.pool(), len(modes), func(i int) (modeResult, error) {
		m := modes[i]
		var out modeResult
		arr, err := workload.NewPoisson(rate)
		if err != nil {
			return out, err
		}
		gen, err := workload.NewGenerator(workload.GeneratorConfig{
			Servers: n, Arrival: arr, Fanout: fan, Classes: classes,
		}, fid.Seed)
		if err != nil {
			return out, err
		}
		dl, err := core.NewDeadliner(core.TFEDFQ, m.estimator, classes)
		if err != nil {
			return out, err
		}
		cfg := cluster.Config{
			Servers:                n,
			Spec:                   core.TFEDFQ,
			ServiceTimes:           perServer,
			Generator:              gen,
			Classes:                classes,
			Deadliner:              dl,
			Queries:                fid.Queries,
			Warmup:                 fid.Warmup,
			Seed:                   fid.Seed + 1,
			HeterogeneousDeadlines: m.hetero,
		}
		if m.online {
			cfg.Estimator = m.estimator
		}
		res, err := cluster.Run(cfg)
		if err != nil {
			return out, fmt.Errorf("ablation-hetero %s: %w", m.name, err)
		}
		out.overall, err = res.Overall.P99()
		if err != nil {
			return out, err
		}
		rec := res.ByFanout.Recorder(100)
		if rec == nil {
			return out, fmt.Errorf("ablation-hetero: no fanout-100 samples")
		}
		out.k100, err = rec.P99()
		if err != nil {
			return out, err
		}
		out.met, _, err = res.MeetsSLOs(classes, fid.MinSamples)
		if err != nil {
			return out, err
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for i, m := range modes {
		r := results[i]
		met := "no"
		metRaw := 0.0
		if r.met {
			met, metRaw = "yes", 1
		}
		t.Rows = append(t.Rows, []string{m.name, f3(r.overall), f3(r.k100), met})
		t.Raw = append(t.Raw, map[string]float64{"p99_overall": r.overall, "p99_k100": r.k100, "slo_met": metRaw})
	}
	return t, nil
}

// ExtSurge drives the Masstree OLDI workload with a sinusoidal load swing
// whose peak exceeds the maximum acceptable load (base 40%, amplitude
// +/-50% -> peak ~60% against a ~55% envelope), comparing TailGuard with
// and without admission control — the paper's "sudden surges of
// workloads" motivation, made visible on a timeline of run-eighths.
// Expected shape: without admission, intervals around the peak violate
// the class-I SLO; with admission, rejection concentrates in the peak
// intervals and the accepted queries' tails stay near the SLO.
func ExtSurge(fid Fidelity, baseLoad, amplitude float64) (*Table, error) {
	if baseLoad <= 0 {
		baseLoad = 0.40
	}
	if amplitude <= 0 {
		amplitude = 0.5
	}
	w, err := dist.TailbenchWorkload("masstree")
	if err != nil {
		return nil, err
	}
	const n = 100
	fan, err := workload.NewFixed(n)
	if err != nil {
		return nil, err
	}
	classes, err := workload.SingleClass(1.0)
	if err != nil {
		return nil, err
	}
	f := fid.scaled(0.25) // fanout-100 queries
	rate, err := workload.RateForLoad(baseLoad, n, fan.MeanTasks(), w.ServiceTime.Mean())
	if err != nil {
		return nil, err
	}
	duration := float64(f.Queries) / rate
	const buckets = 8
	bucket := duration / buckets

	t := &Table{
		ID: "ext-surge",
		Title: fmt.Sprintf("Sinusoidal surge (base %.0f%%, amplitude ±%.0f%%, one period per run) on Masstree OLDI: per-interval accepted fraction and p99 (SLO 1.0 ms)",
			baseLoad*100, amplitude*100),
		Columns: []string{"admission", "interval", "accepted_frac", "p99_ms"},
	}
	for _, withAdmission := range []bool{false, true} {
		arr, err := workload.NewSinusoidal(rate, amplitude, duration)
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewGenerator(workload.GeneratorConfig{
			Servers: n, Arrival: arr, Fanout: fan, Classes: classes,
		}, f.Seed)
		if err != nil {
			return nil, err
		}
		est, err := core.NewHomogeneousStaticTailEstimator(w.ServiceTime, n)
		if err != nil {
			return nil, err
		}
		dl, err := core.NewDeadliner(core.TFEDFQ, est, classes)
		if err != nil {
			return nil, err
		}
		cfg := cluster.Config{
			Servers:          n,
			Spec:             core.TFEDFQ,
			ServiceTimes:     []dist.Distribution{w.ServiceTime},
			Generator:        gen,
			Classes:          classes,
			Deadliner:        dl,
			Queries:          f.Queries,
			Warmup:           0,
			Seed:             f.Seed + 1,
			TimelineBucketMs: bucket,
		}
		label := "off"
		if withAdmission {
			adm, err := core.NewAdmissionController(bucket/2, 0.009)
			if err != nil {
				return nil, err
			}
			cfg.Admission = adm
			label = "on"
		}
		res, err := cluster.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("ext-surge admission=%s: %w", label, err)
		}
		for b := 0; b < buckets; b++ {
			adm := res.TimelineAdmitted[b]
			rej := res.TimelineRejected[b]
			frac := 1.0
			if adm+rej > 0 {
				frac = float64(adm) / float64(adm+rej)
			}
			p99 := 0.0
			if rec := res.Timeline.Recorder(b); rec != nil && rec.Count() >= f.MinSamples/4 {
				p99, err = rec.P99()
				if err != nil {
					return nil, err
				}
			}
			t.Rows = append(t.Rows, []string{label, fmt.Sprintf("%d/%d", b+1, buckets), pct(frac), f3(p99)})
			t.Raw = append(t.Raw, map[string]float64{
				"interval": float64(b), "accepted_frac": frac, "p99_ms": p99,
			})
		}
	}
	return t, nil
}

// ExtFailure injects a capacity-loss window (20% of servers down for the
// middle fifth of the run) into the Masstree mixed-fanout workload at
// moderate load, comparing TailGuard with and without admission control —
// the paper's Section III.C motivation ("hardware/software failures").
// The table is a timeline: per run-fifth, the accepted fraction and the
// p99 of queries arriving in that interval.
//
// Expected shape (an honest limitation of the paper's mechanism that this
// experiment makes visible): queries already dispatched to dead servers
// wait out the outage regardless of admission — and because the miss
// signal is observed at *dequeue*, a total outage produces no signal until
// recovery. Admission therefore reacts in the interval after the failure,
// shedding load hard to drain the backlog, and restores afterwards.
// Mitigating the in-outage tail itself requires redundant task issue or
// re-dispatch (the paper's "outlier alleviation" category, out of scope).
func ExtFailure(fid Fidelity, load float64) (*Table, error) {
	if load <= 0 {
		load = 0.40
	}
	w, err := dist.TailbenchWorkload("masstree")
	if err != nil {
		return nil, err
	}
	const n = 100
	fan, err := workload.NewInverseProportional(PaperFanouts)
	if err != nil {
		return nil, err
	}
	classes, err := workload.SingleClass(1.0)
	if err != nil {
		return nil, err
	}
	rate, err := workload.RateForLoad(load, n, fan.MeanTasks(), w.ServiceTime.Mean())
	if err != nil {
		return nil, err
	}
	// Run geometry: expected duration and the failure window inside it.
	duration := float64(fid.Queries) / rate
	bucket := duration / 5
	failStart, failEnd := 2*bucket, 3*bucket
	var failures []cluster.Failure
	for s := 0; s < n/5; s++ {
		failures = append(failures, cluster.Failure{Server: s, Start: failStart, End: failEnd})
	}

	t := &Table{
		ID: "ext-failure",
		Title: fmt.Sprintf("20%% of servers down during interval 3/5 at %.0f%% load (Masstree, SLO 1.0 ms): per-interval accepted fraction and p99",
			load*100),
		Columns: []string{"admission", "interval", "accepted_frac", "p99_ms"},
	}
	for _, withAdmission := range []bool{false, true} {
		est, err := core.NewHomogeneousStaticTailEstimator(w.ServiceTime, n)
		if err != nil {
			return nil, err
		}
		dl, err := core.NewDeadliner(core.TFEDFQ, est, classes)
		if err != nil {
			return nil, err
		}
		arr, err := workload.NewPoisson(rate)
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewGenerator(workload.GeneratorConfig{
			Servers: n, Arrival: arr, Fanout: fan, Classes: classes,
		}, fid.Seed)
		if err != nil {
			return nil, err
		}
		cfg := cluster.Config{
			Servers:          n,
			Spec:             core.TFEDFQ,
			ServiceTimes:     []dist.Distribution{w.ServiceTime},
			Generator:        gen,
			Classes:          classes,
			Deadliner:        dl,
			Queries:          fid.Queries,
			Warmup:           0, // the timeline itself separates transient from steady state
			Seed:             fid.Seed + 1,
			Failures:         failures,
			TimelineBucketMs: bucket,
		}
		label := "off"
		if withAdmission {
			adm, err := core.NewAdmissionController(bucket/4, 0.01)
			if err != nil {
				return nil, err
			}
			cfg.Admission = adm
			label = "on"
		}
		res, err := cluster.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("ext-failure admission=%s: %w", label, err)
		}
		for b := 0; b < 5; b++ {
			adm := res.TimelineAdmitted[b]
			rej := res.TimelineRejected[b]
			frac := 1.0
			if adm+rej > 0 {
				frac = float64(adm) / float64(adm+rej)
			}
			p99 := 0.0
			if rec := res.Timeline.Recorder(b); rec != nil && rec.Count() >= fid.MinSamples/4 {
				p99, err = rec.P99()
				if err != nil {
					return nil, err
				}
			}
			t.Rows = append(t.Rows, []string{label, fmt.Sprintf("%d/5", b+1), pct(frac), f3(p99)})
			t.Raw = append(t.Raw, map[string]float64{
				"interval": float64(b), "accepted_frac": frac, "p99_ms": p99,
				"fail_start": failStart, "fail_end": failEnd,
			})
		}
	}
	return t, nil
}

// AblationDispatch compares the paper's two queuing placements (footnote
// 3): central queuing at the query handler (dispatch delay lands after
// dequeue, inside t_po and server occupancy) versus per-server queuing
// (dispatch lands before enqueue, inside t_pr). Both run TailGuard with
// deadline estimation aware of the dispatch mean.
func AblationDispatch(fid Fidelity, load, dispatchMeanMs float64) (*Table, error) {
	if load <= 0 {
		load = 0.30
	}
	if dispatchMeanMs <= 0 {
		dispatchMeanMs = 0.05
	}
	w, err := dist.TailbenchWorkload("masstree")
	if err != nil {
		return nil, err
	}
	const n = 100
	fan, err := workload.NewInverseProportional(PaperFanouts)
	if err != nil {
		return nil, err
	}
	classes, err := workload.SingleClass(1.0)
	if err != nil {
		return nil, err
	}
	dispatch, err := dist.NewExponential(dispatchMeanMs)
	if err != nil {
		return nil, err
	}
	// Unloaded task response includes the dispatch leg under central
	// queuing; give the estimator the shifted model there.
	centralModel := dist.Shifted{D: w.ServiceTime, Offset: dispatchMeanMs}

	t := &Table{
		ID:      "ablation-dispatch",
		Title:   fmt.Sprintf("Central vs per-server queuing with %.0f us mean dispatch delay at %.0f%% load", dispatchMeanMs*1000, load*100),
		Columns: []string{"queuing", "p99_overall", "p99_k100", "mean_wait"},
	}
	modes := []struct {
		name    string
		mode    cluster.QueuingMode
		estBase dist.Distribution
	}{
		{"central", cluster.CentralQueuing, centralModel},
		{"per-server", cluster.PerServerQueuing, w.ServiceTime},
	}
	type modeResult struct {
		overall, k100, wait float64
	}
	results, err := parallel.Map(fid.pool(), len(modes), func(i int) (modeResult, error) {
		m := modes[i]
		var out modeResult
		est, err := core.NewHomogeneousStaticTailEstimator(m.estBase, n)
		if err != nil {
			return out, err
		}
		dl, err := core.NewDeadliner(core.TFEDFQ, est, classes)
		if err != nil {
			return out, err
		}
		// The dispatch leg adds to effective demand under central
		// queuing; use the same arrival rate for both so the comparison
		// is apples-to-apples on offered queries.
		rate, err := workload.RateForLoad(load, n, fan.MeanTasks(), w.ServiceTime.Mean())
		if err != nil {
			return out, err
		}
		arr, err := workload.NewPoisson(rate)
		if err != nil {
			return out, err
		}
		gen, err := workload.NewGenerator(workload.GeneratorConfig{
			Servers: n, Arrival: arr, Fanout: fan, Classes: classes,
		}, fid.Seed)
		if err != nil {
			return out, err
		}
		res, err := cluster.Run(cluster.Config{
			Servers:       n,
			Spec:          core.TFEDFQ,
			ServiceTimes:  []dist.Distribution{w.ServiceTime},
			Generator:     gen,
			Classes:       classes,
			Deadliner:     dl,
			Queries:       fid.Queries,
			Warmup:        fid.Warmup,
			Seed:          fid.Seed + 1,
			Queuing:       m.mode,
			DispatchDelay: dispatch,
		})
		if err != nil {
			return out, fmt.Errorf("ablation-dispatch %s: %w", m.name, err)
		}
		out.overall, err = res.Overall.P99()
		if err != nil {
			return out, err
		}
		rec := res.ByFanout.Recorder(100)
		if rec == nil {
			return out, fmt.Errorf("ablation-dispatch: no fanout-100 samples")
		}
		out.k100, err = rec.P99()
		if err != nil {
			return out, err
		}
		out.wait = res.TaskWait.Mean()
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for i, m := range modes {
		r := results[i]
		t.Rows = append(t.Rows, []string{m.name, f3(r.overall), f3(r.k100), f3(r.wait)})
		t.Raw = append(t.Raw, map[string]float64{
			"p99_overall": r.overall, "p99_k100": r.k100, "mean_wait": r.wait,
		})
	}
	return t, nil
}

// AblationAdmissionWindow sweeps the admission-control window size at a
// fixed overload, showing the control/measurement-delay trade-off the
// paper discusses for Fig. 7.
func AblationAdmissionWindow(fid Fidelity, offered float64, windowsMs []float64) (*Table, error) {
	if offered <= 0 {
		offered = 0.65
	}
	if len(windowsMs) == 0 {
		windowsMs = []float64{30, 100, 300, 1000}
	}
	t := &Table{
		ID:      "ablation-admission",
		Title:   fmt.Sprintf("Admission window sweep at %.0f%% offered load (Masstree OLDI)", offered*100),
		Columns: []string{"window_ms", "accepted", "p99_classI", "p99_classII"},
	}
	type winResult struct {
		accepted, p99I, p99II float64
	}
	results, err := parallel.Map(fid.pool(), len(windowsMs), func(i int) (winResult, error) {
		win := windowsMs[i]
		var out winResult
		s, err := oldiScenario("masstree", core.TFEDFQ, fid)
		if err != nil {
			return out, err
		}
		s.Load = offered
		s.AdmissionWindowMs = win
		s.AdmissionThreshold = 0.017
		res, err := s.Run()
		if err != nil {
			return out, fmt.Errorf("ablation-admission window=%v: %w", win, err)
		}
		out.accepted = res.Utilization
		out.p99I, err = resultP99(res, 0)
		if err != nil {
			return out, err
		}
		out.p99II, err = resultP99(res, 1)
		if err != nil {
			return out, err
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for i, win := range windowsMs {
		r := results[i]
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%g", win), pct(r.accepted), f3(r.p99I), f3(r.p99II)})
		t.Raw = append(t.Raw, map[string]float64{
			"window_ms": win, "accepted": r.accepted,
			"p99_classI": r.p99I, "p99_classII": r.p99II,
		})
	}
	return t, nil
}
