package experiment

import (
	"fmt"

	"tailguard/internal/cluster"
	"tailguard/internal/core"
	"tailguard/internal/dist"
	"tailguard/internal/parallel"
	"tailguard/internal/workload"
)

// PaperFanouts is the Section IV.B query-type mix: fanouts 1/10/100 with
// probability inversely proportional to fanout.
var PaperFanouts = []int{1, 10, 100}

// Fig4SLOs gives the per-workload single-class tail-latency SLO sweeps
// (ms) for the Fig. 4 case study. The Masstree values are the paper's;
// the Shore/Xapian tick labels are partially unreadable in the figure, so
// values are chosen (as the paper did) to land the max loads in the
// 20-60% range.
var Fig4SLOs = map[string][]float64{
	"masstree": {0.8, 1.0, 1.2, 1.4},
	"shore":    {4, 6, 8, 10},
	"xapian":   {7, 10, 12, 14},
}

// Fig6SLOs gives the two-class (I/II) SLO pairs (ms) for the fanout-100
// OLDI case study of Section IV.C, exactly as published.
var Fig6SLOs = map[string][2]float64{
	"masstree": {1, 1.5},
	"shore":    {6, 10},
	"xapian":   {10, 15},
}

// Fig6Loads is the published x-axis: 20% to 60% in 5% steps.
var Fig6Loads = []float64{0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60}

// Fig3 tabulates the service-time CDFs of the three workload models at a
// percentile grid, plus the p95/p99 markers the figure calls out.
func Fig3() (*Table, error) {
	names := dist.TailbenchNames()
	t := &Table{
		ID:      "fig3",
		Title:   "Task service-time CDFs (quantiles, ms) with p95/p99 markers",
		Columns: append([]string{"percentile"}, names...),
	}
	grid := []float64{0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 0.9999, 1.0}
	for _, p := range grid {
		row := []string{fmt.Sprintf("p%g", p*100)}
		raw := map[string]float64{"percentile": p}
		for _, name := range names {
			w, err := dist.TailbenchWorkload(name)
			if err != nil {
				return nil, err
			}
			v := w.ServiceTime.Quantile(p)
			row = append(row, f3(v))
			raw[name] = v
		}
		t.Rows = append(t.Rows, row)
		t.Raw = append(t.Raw, raw)
	}
	return t, nil
}

// Table2 reproduces Table II: mean task service time and unloaded 99th
// percentile query tails at fanouts 1, 10, 100.
func Table2() (*Table, error) {
	t := &Table{
		ID:      "table2",
		Title:   "Mean task service time Tm and unloaded x99^u at fanouts 1/10/100 (ms)",
		Columns: []string{"workload", "Tm", "x99(1)", "x99(10)", "x99(100)"},
	}
	for _, name := range dist.TailbenchNames() {
		w, err := dist.TailbenchWorkload(name)
		if err != nil {
			return nil, err
		}
		raw := map[string]float64{"Tm": w.ServiceTime.Mean()}
		row := []string{name, f3(raw["Tm"])}
		for _, k := range []int{1, 10, 100} {
			x, err := w.X99(k)
			if err != nil {
				return nil, err
			}
			key := fmt.Sprintf("x99(%d)", k)
			raw[key] = x
			row = append(row, f3(x))
		}
		t.Rows = append(t.Rows, row)
		t.Raw = append(t.Raw, raw)
	}
	return t, nil
}

// singleClassRows builds the Fig. 4 scenarios for one workload: N=100,
// mixed fanouts 1/10/100 (P ∝ 1/kf), one class, a row per (SLO, policy)
// in that order. The rows share one service-time model and one fanout
// distribution, so the max-load search can tell which of them share
// probes.
func singleClassRows(workloadName string, slos []float64, specs []core.Spec, fid Fidelity) ([]Scenario, error) {
	w, err := dist.TailbenchWorkload(workloadName)
	if err != nil {
		return nil, err
	}
	fan, err := workload.NewInverseProportional(PaperFanouts)
	if err != nil {
		return nil, err
	}
	var rows []Scenario
	for _, slo := range slos {
		classes, err := workload.SingleClass(slo)
		if err != nil {
			return nil, err
		}
		for _, spec := range specs {
			rows = append(rows, Scenario{
				Workload: w,
				Servers:  100,
				Spec:     spec,
				Fanout:   fan,
				Classes:  classes,
				Load:     0.3, // placeholder; max-load search overrides
				Fidelity: fid,
			})
		}
	}
	return rows, nil
}

// Fig4 reproduces Fig. 4: the maximum load meeting a single-class tail
// latency SLO, TailGuard vs FIFO, per workload and SLO. (PRIQ and T-EDFQ
// degenerate to FIFO with a single class, bit for bit:
// TestSingleClassPRIQAndTEDFQAreFIFO.)
func Fig4(fid Fidelity, workloads []string, slos map[string][]float64) (*Table, error) {
	if len(workloads) == 0 {
		workloads = dist.TailbenchNames()
	}
	if slos == nil {
		slos = Fig4SLOs
	}
	t := &Table{
		ID:      "fig4",
		Title:   "Max load meeting the single-class x99 SLO (TailGuard vs FIFO)",
		Columns: []string{"workload", "slo_ms", "policy", "max_load", "gain_vs_fifo"},
	}
	// Every (workload, SLO, policy) cell is one row of a single lockstep
	// max-load search.
	var rows []Scenario
	for _, name := range workloads {
		r, err := singleClassRows(name, slos[name], []core.Spec{core.TFEDFQ, core.FIFO}, fid)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	loads, err := searchMaxLoads(fid.pool(), rows, DefaultMaxLoadBounds)
	if err != nil {
		return nil, fmt.Errorf("fig4: %w", err)
	}
	ci := 0
	for _, name := range workloads {
		for _, slo := range slos[name] {
			tg, fifo := loads[ci], loads[ci+1]
			ci += 2
			for _, p := range []struct {
				name string
				load float64
			}{{"TailGuard", tg}, {"FIFO", fifo}} {
				gain := 0.0
				if fifo > 0 {
					gain = p.load/fifo - 1
				}
				t.Rows = append(t.Rows, []string{name, f2(slo), p.name, pct(p.load), pct(gain)})
				t.Raw = append(t.Raw, map[string]float64{
					"slo_ms": slo, "max_load": p.load, "gain_vs_fifo": gain,
				})
			}
		}
	}
	return t, nil
}

// Fig4Replicated is Fig4 with R independently seeded max-load searches per
// point, reporting mean and sample standard deviation — the honest form of
// the headline numbers.
func Fig4Replicated(fid Fidelity, workloads []string, slos map[string][]float64, replicates int) (*Table, error) {
	if len(workloads) == 0 {
		workloads = dist.TailbenchNames()
	}
	if slos == nil {
		slos = Fig4SLOs
	}
	if replicates < 2 {
		return nil, fmt.Errorf("experiment: need >= 2 replicates, got %d", replicates)
	}
	t := &Table{
		ID:      "fig4",
		Title:   fmt.Sprintf("Max load meeting the single-class x99 SLO, mean±sd over %d replicates", replicates),
		Columns: []string{"workload", "slo_ms", "policy", "max_load_mean", "max_load_sd"},
	}
	// The full (workload, SLO, policy) x replicate grid is one lockstep
	// search; each row is one independently seeded max-load search,
	// exactly the searches ReplicatedScenarioMaxLoad runs per cell.
	var cells, rows []Scenario
	for _, name := range workloads {
		r, err := singleClassRows(name, slos[name], []core.Spec{core.TFEDFQ, core.FIFO}, fid)
		if err != nil {
			return nil, err
		}
		cells = append(cells, r...)
	}
	for _, c := range cells {
		for rep := 0; rep < replicates; rep++ {
			c.Fidelity.Seed = replicateSeed(fid.Seed, rep)
			rows = append(rows, c)
		}
	}
	values, err := searchMaxLoads(fid.pool(), rows, DefaultMaxLoadBounds)
	if err != nil {
		return nil, fmt.Errorf("fig4r: %w", err)
	}
	for i, c := range cells {
		rep := summarize(values[i*replicates : (i+1)*replicates])
		slo := c.Classes.Classes()[0].SLOMs
		t.Rows = append(t.Rows, []string{c.Workload.Name, f2(slo), c.Spec.Name, pct(rep.Mean), pct(rep.StdDev)})
		t.Raw = append(t.Raw, map[string]float64{
			"slo_ms": slo, "max_load": rep.Mean, "max_load_sd": rep.StdDev,
		})
	}
	return t, nil
}

// Table3 reproduces Table III: the per-fanout 99th-percentile query
// latency at each policy's own maximum load, Masstree, four SLOs.
func Table3(fid Fidelity, slos []float64) (*Table, error) {
	if slos == nil {
		slos = Fig4SLOs["masstree"]
	}
	t := &Table{
		ID:      "table3",
		Title:   "p99 (ms) per query fanout at max load (Masstree, single class)",
		Columns: []string{"slo_ms", "policy", "max_load", "p99_k1", "p99_k10", "p99_k100"},
	}
	rows, err := singleClassRows("masstree", slos, []core.Spec{core.FIFO, core.TFEDFQ}, fid)
	if err != nil {
		return nil, err
	}
	loads, err := searchMaxLoads(fid.pool(), rows, DefaultMaxLoadBounds)
	if err != nil {
		return nil, fmt.Errorf("table3: %w", err)
	}
	type cellResult struct {
		ml  float64
		p99 [3]float64
	}
	results, err := parallel.Map(fid.pool(), len(rows), func(i int) (cellResult, error) {
		var out cellResult
		s := rows[i]
		ml := loads[i]
		if ml <= 0 {
			ml = DefaultMaxLoadBounds.Lo
		}
		out.ml = ml
		s.Load = ml
		res, err := s.Run()
		if err != nil {
			return out, err
		}
		for ki, k := range PaperFanouts {
			rec := res.ByFanout.Recorder(k)
			if rec == nil {
				return out, fmt.Errorf("table3: no samples for fanout %d", k)
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
	for i, s := range rows {
		r := results[i]
		slo := s.Classes.Classes()[0].SLOMs
		row := []string{f2(slo), s.Spec.Name, pct(r.ml)}
		raw := map[string]float64{"slo_ms": slo, "max_load": r.ml}
		for ki, k := range PaperFanouts {
			row = append(row, f3(r.p99[ki]))
			raw[fmt.Sprintf("p99_k%d", k)] = r.p99[ki]
		}
		t.Rows = append(t.Rows, row)
		t.Raw = append(t.Raw, raw)
	}
	return t, nil
}

// Fig5 reproduces Fig. 5: two-class maximum loads for Masstree under all
// four policies, with Poisson and Pareto arrivals.
func Fig5(fid Fidelity, highSLOs []float64, arrivals []ArrivalKind) (*Table, error) {
	if highSLOs == nil {
		highSLOs = Fig4SLOs["masstree"]
	}
	if len(arrivals) == 0 {
		arrivals = []ArrivalKind{Poisson, Pareto}
	}
	w, err := dist.TailbenchWorkload("masstree")
	if err != nil {
		return nil, err
	}
	fan, err := workload.NewInverseProportional(PaperFanouts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig5",
		Title:   "Max load, two classes (low SLO = 1.5x high), Masstree",
		Columns: []string{"arrival", "high_slo_ms", "policy", "max_load"},
	}
	var rows []Scenario
	for _, arrival := range arrivals {
		for _, slo := range highSLOs {
			classes, err := workload.TwoClasses(slo, 1.5)
			if err != nil {
				return nil, err
			}
			for _, spec := range core.Specs() {
				rows = append(rows, Scenario{
					Workload: w,
					Servers:  100,
					Spec:     spec,
					Fanout:   fan,
					Classes:  classes,
					Arrival:  arrival,
					Load:     0.3,
					Fidelity: fid,
				})
			}
		}
	}
	loads, err := searchMaxLoads(fid.pool(), rows, DefaultMaxLoadBounds)
	if err != nil {
		return nil, fmt.Errorf("fig5: %w", err)
	}
	for i, s := range rows {
		slo := s.Classes.Classes()[0].SLOMs
		t.Rows = append(t.Rows, []string{string(s.Arrival), f2(slo), s.Spec.Name, pct(loads[i])})
		t.Raw = append(t.Raw, map[string]float64{"high_slo_ms": slo, "max_load": loads[i]})
	}
	return t, nil
}

// oldiScenario builds the Section IV.C OLDI setup: every query fans out to
// all N=100 servers, two classes.
func oldiScenario(workloadName string, spec core.Spec, fid Fidelity) (Scenario, error) {
	w, err := dist.TailbenchWorkload(workloadName)
	if err != nil {
		return Scenario{}, err
	}
	fan, err := workload.NewFixed(100)
	if err != nil {
		return Scenario{}, err
	}
	slos, ok := Fig6SLOs[workloadName]
	if !ok {
		return Scenario{}, fmt.Errorf("experiment: no Fig6 SLOs for %q", workloadName)
	}
	classes, err := workload.TwoClasses(slos[0], slos[1]/slos[0])
	if err != nil {
		return Scenario{}, err
	}
	// Fanout-100 queries carry 100 tasks each; scale query counts down to
	// keep probe cost comparable to the mixed-fanout runs.
	return Scenario{
		Workload: w,
		Servers:  100,
		Spec:     spec,
		Fanout:   fan,
		Classes:  classes,
		Load:     0.3,
		Fidelity: fid.scaled(0.25),
	}, nil
}

// Fig6 reproduces Fig. 6: the 99th-percentile query latency of each class
// versus load for the all-fanout-100 OLDI workloads, under TailGuard,
// FIFO and PRIQ (T-EDFQ coincides with TailGuard at fixed fanout).
func Fig6(fid Fidelity, workloads []string, loads []float64) (*Table, error) {
	if len(workloads) == 0 {
		workloads = dist.TailbenchNames()
	}
	if len(loads) == 0 {
		loads = Fig6Loads
	}
	t := &Table{
		ID:      "fig6",
		Title:   "p99 (ms) vs load, fanout-100 OLDI, two classes",
		Columns: []string{"workload", "policy", "load", "p99_classI", "p99_classII", "sloI", "sloII"},
	}
	type cell struct {
		name string
		spec core.Spec
		load float64
	}
	var cells []cell
	for _, name := range workloads {
		for _, spec := range []core.Spec{core.TFEDFQ, core.FIFO, core.PRIQ} {
			for _, load := range loads {
				cells = append(cells, cell{name: name, spec: spec, load: load})
			}
		}
	}
	results, err := parallel.Map(fid.pool(), len(cells), func(i int) ([2]float64, error) {
		c := cells[i]
		var p99 [2]float64
		s, err := oldiScenario(c.name, c.spec, fid)
		if err != nil {
			return p99, err
		}
		s.Load = c.load
		res, err := s.Run()
		if err != nil {
			return p99, fmt.Errorf("fig6 %s %s load=%v: %w", c.name, c.spec.Name, c.load, err)
		}
		for cl := 0; cl < 2; cl++ {
			rec := res.ByClass.Recorder(cl)
			if rec == nil {
				return p99, fmt.Errorf("fig6: no class-%d samples", cl)
			}
			v, err := rec.P99()
			if err != nil {
				return p99, err
			}
			p99[cl] = v
		}
		return p99, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		slos := Fig6SLOs[c.name]
		p99 := results[i]
		t.Rows = append(t.Rows, []string{
			c.name, c.spec.Name, pct(c.load), f3(p99[0]), f3(p99[1]), f2(slos[0]), f2(slos[1]),
		})
		t.Raw = append(t.Raw, map[string]float64{
			"load": c.load, "p99_classI": p99[0], "p99_classII": p99[1],
			"sloI": slos[0], "sloII": slos[1],
		})
	}
	return t, nil
}

// Fig7 reproduces Fig. 7: TailGuard with query admission control on the
// Masstree OLDI workload — accepted/rejected load and per-class p99 across
// offered loads. Per the paper's procedure, Rth is calibrated first: the
// task deadline-miss ratio measured at the maximum acceptable load without
// admission control (the paper's own calibration yielded 1.7%).
func Fig7(fid Fidelity, offeredLoads []float64) (*Table, error) {
	if len(offeredLoads) == 0 {
		offeredLoads = []float64{0.45, 0.50, 0.55, 0.60, 0.65, 0.70}
	}

	// Calibration phase.
	cal, err := oldiScenario("masstree", core.TFEDFQ, fid)
	if err != nil {
		return nil, err
	}
	maxLoad, err := ScenarioMaxLoad(cal, DefaultMaxLoadBounds)
	if err != nil {
		return nil, fmt.Errorf("fig7 calibration: %w", err)
	}
	rth := 0.017 // paper's value as fallback
	if maxLoad > 0 {
		cal.Load = maxLoad
		res, err := cal.Run()
		if err != nil {
			return nil, fmt.Errorf("fig7 calibration run: %w", err)
		}
		if res.TaskMissRatio > 0.001 {
			rth = res.TaskMissRatio
		}
	}

	t := &Table{
		ID: "fig7",
		Title: fmt.Sprintf("TailGuard admission control (Masstree OLDI): accepted load and p99 vs offered load (max acceptable %.1f%%, calibrated Rth %.2f%%)",
			maxLoad*100, rth*100),
		Columns: []string{"offered", "accepted", "rejected", "p99_classI", "p99_classII", "miss_ratio"},
	}
	type loadResult struct {
		accepted, rejected, miss float64
		p99                      [2]float64
	}
	results, err := parallel.Map(fid.pool(), len(offeredLoads), func(i int) (loadResult, error) {
		load := offeredLoads[i]
		var out loadResult
		s, err := oldiScenario("masstree", core.TFEDFQ, fid)
		if err != nil {
			return out, err
		}
		s.Load = load
		// The paper's window spans ~1000 queries; convert to time at the
		// offered arrival rate (lambda = load*N/(kf*Tm)). Short runs cap
		// the window at a tenth of the run so the control loop can act.
		rate, err := workload.RateForLoad(load, s.Servers, s.Fanout.MeanTasks(), s.Workload.ServiceTime.Mean())
		if err != nil {
			return out, err
		}
		windowQueries := 1000
		if cap := s.Fidelity.Queries / 10; cap < windowQueries {
			windowQueries = cap
		}
		if windowQueries < 10 {
			windowQueries = 10
		}
		s.AdmissionWindowMs = float64(windowQueries) / rate
		s.AdmissionThreshold = rth
		res, err := s.Run()
		if err != nil {
			return out, fmt.Errorf("fig7 load=%v: %w", load, err)
		}
		for c := 0; c < 2; c++ {
			v, err := resultP99(res, c)
			if err != nil {
				return out, fmt.Errorf("fig7 load=%v: %w", load, err)
			}
			out.p99[c] = v
		}
		out.accepted = res.Utilization
		out.rejected = res.OfferedLoad - out.accepted
		if out.rejected < 0 {
			out.rejected = 0
		}
		out.miss = res.TaskMissRatio
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for i, load := range offeredLoads {
		r := results[i]
		t.Rows = append(t.Rows, []string{
			pct(load), pct(r.accepted), pct(r.rejected), f3(r.p99[0]), f3(r.p99[1]), pct(r.miss),
		})
		t.Raw = append(t.Raw, map[string]float64{
			"offered": load, "accepted": r.accepted, "rejected": r.rejected,
			"p99_classI": r.p99[0], "p99_classII": r.p99[1], "miss_ratio": r.miss,
		})
	}
	return t, nil
}

// resultP99 is a small helper used by extension experiments.
func resultP99(res *cluster.Result, class int) (float64, error) {
	rec := res.ByClass.Recorder(class)
	if rec == nil {
		return 0, fmt.Errorf("experiment: no samples for class %d", class)
	}
	return rec.P99()
}
