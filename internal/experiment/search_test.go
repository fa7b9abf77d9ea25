package experiment

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"tailguard/internal/cluster"
	"tailguard/internal/core"
	"tailguard/internal/dist"
	"tailguard/internal/metrics"
	"tailguard/internal/parallel"
	"tailguard/internal/workload"
)

// sweepRows is the benchmark sweep's shape at test size: masstree, N=100,
// fanouts 1/10/100, one row per SLO for each policy. With two classes the
// low class's SLO is 1.5 times the high class's (Fig. 5).
func sweepRows(t *testing.T, specs []core.Spec, slos []float64, classesN int, fid Fidelity) []Scenario {
	t.Helper()
	w := dist.MustTailbenchWorkload("masstree")
	fan, err := workload.NewInverseProportional(PaperFanouts)
	if err != nil {
		t.Fatalf("NewInverseProportional: %v", err)
	}
	var rows []Scenario
	for _, spec := range specs {
		for _, slo := range slos {
			classes, err := classSetForPaper(slo, classesN, 1.5)
			if err != nil {
				t.Fatalf("classSetForPaper: %v", err)
			}
			rows = append(rows, Scenario{
				Workload: w, Servers: 100, Spec: spec, Fanout: fan,
				Classes: classes, Load: 0.3, Fidelity: fid,
			})
		}
	}
	return rows
}

// TestCensusDoesNotDependOnLoad pins what lets one census serve every
// probe of a search: the per-type counts of a scenario's stream are the
// same at every load, for Poisson and Pareto arrivals alike, and they
// are exactly the counts a full run records.
func TestCensusDoesNotDependOnLoad(t *testing.T) {
	for _, arrival := range []ArrivalKind{Poisson, Pareto} {
		s := sweepRows(t, []core.Spec{core.FIFO}, []float64{1}, 2, goldenFid)[0]
		s.Arrival = arrival
		var want []int
		for _, load := range []float64{0.05, 0.5, 0.95} {
			s.Load = load
			got, err := s.census()
			if err != nil {
				t.Fatalf("%s load=%v: census: %v", arrival, load, err)
			}
			if want == nil {
				want = got
				res, err := s.Run()
				if err != nil {
					t.Fatalf("%s: Run: %v", arrival, err)
				}
				recorded := make([]int, len(got))
				stride := s.Fanout.Max() + 1
				res.ByType.Each(func(k cluster.ClassFanout, r *metrics.LatencyRecorder) {
					recorded[k.Class*stride+k.Fanout] = r.Count()
				})
				if !reflect.DeepEqual(recorded, want) {
					t.Errorf("%s: census %v, full run recorded %v", arrival, want, recorded)
				}
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: census at load %v = %v, at 0.05 = %v", arrival, load, got, want)
			}
		}
	}
}

// TestProbeTwins pins which rows share probes. Deadline-blind rows share
// across SLOs whatever their classes. Single-class TF-EDFQ and T-EDFQ
// rows share across SLOs, because the SLO shifts every deadline by one
// constant, but not when that shift is not one constant (two classes at
// a ratio), x_p^u differs (another percentile), the run reads the miss
// ratio (admission), or the stream differs (seed, fanouts).
func TestProbeTwins(t *testing.T) {
	base := sweepRows(t, []core.Spec{core.FIFO}, []float64{1}, 1, goldenFid)[0]
	row := func(spec core.Spec, slo float64, classesN int) Scenario {
		s := base
		s.Spec = spec
		var err error
		if s.Classes, err = classSetForPaper(slo, classesN, 1.5); err != nil {
			t.Fatalf("classSetForPaper: %v", err)
		}
		return s
	}
	p95, err := workload.NewClassSet([]workload.Class{{ID: 0, Name: "p95", SLOMs: 1.5, Percentile: 0.95, Weight: 1}})
	if err != nil {
		t.Fatalf("NewClassSet: %v", err)
	}
	fixed, err := workload.NewFixed(100)
	if err != nil {
		t.Fatalf("NewFixed: %v", err)
	}
	with := func(s Scenario, edit func(*Scenario)) Scenario {
		edit(&s)
		return s
	}
	cases := []struct {
		name string
		a, b Scenario
		twin bool
	}{
		{"FIFO, one class", row(core.FIFO, 1, 1), row(core.FIFO, 1.5, 1), true},
		{"PRIQ, two classes", row(core.PRIQ, 1, 2), row(core.PRIQ, 1.5, 2), true},
		{"TF-EDFQ, one class", row(core.TFEDFQ, 1, 1), row(core.TFEDFQ, 1.5, 1), true},
		{"T-EDFQ, one class", row(core.TEDFQ, 1, 1), row(core.TEDFQ, 1.5, 1), true},
		{"TF-EDFQ, two classes at a ratio", row(core.TFEDFQ, 1, 2), row(core.TFEDFQ, 1.5, 2), false},
		{"T-EDFQ, two classes at a ratio", row(core.TEDFQ, 1, 2), row(core.TEDFQ, 1.5, 2), false},
		{"TF-EDFQ, another percentile", row(core.TFEDFQ, 1, 1),
			with(row(core.TFEDFQ, 1, 1), func(s *Scenario) { s.Classes = p95 }), false},
		{"TF-EDFQ vs T-EDFQ", row(core.TFEDFQ, 1, 1), row(core.TEDFQ, 1.5, 1), false},
		{"TF-EDFQ, admission on", row(core.TFEDFQ, 1, 1),
			with(row(core.TFEDFQ, 1.5, 1), func(s *Scenario) { s.AdmissionWindowMs, s.AdmissionThreshold = 100, 0.02 }), false},
		{"FIFO, admission on", row(core.FIFO, 1, 1),
			with(row(core.FIFO, 1.5, 1), func(s *Scenario) { s.AdmissionWindowMs, s.AdmissionThreshold = 100, 0.02 }), false},
		{"TF-EDFQ, another seed", row(core.TFEDFQ, 1, 1),
			with(row(core.TFEDFQ, 1.5, 1), func(s *Scenario) { s.Fidelity.Seed = 2 }), false},
		{"TF-EDFQ, other fanouts", row(core.TFEDFQ, 1, 1),
			with(row(core.TFEDFQ, 1.5, 1), func(s *Scenario) { s.Fanout = fixed }), false},
		{"TF-EDFQ, sharded", with(row(core.TFEDFQ, 1, 1), func(s *Scenario) { s.Shards = 2 }),
			with(row(core.TFEDFQ, 1.5, 1), func(s *Scenario) { s.Shards = 2 }), true},
		{"FIFO, sharded", with(row(core.FIFO, 1, 1), func(s *Scenario) { s.Shards = 2 }),
			with(row(core.FIFO, 1.5, 1), func(s *Scenario) { s.Shards = 2 }), true},
	}
	for _, tc := range cases {
		if got := probeTwins(tc.a, tc.b); got != tc.twin {
			t.Errorf("%s: probeTwins = %v, want %v", tc.name, got, tc.twin)
		}
		if got := probeTwins(tc.b, tc.a); got != tc.twin {
			t.Errorf("%s (swapped): probeTwins = %v, want %v", tc.name, got, tc.twin)
		}
	}
}

// TestBisectMatchesMaxLoadPerRow: the lockstep search gives every row
// exactly the load MaxLoad gives it alone, whatever the rows share and
// however many workers speculate, and runs each (group, load) once.
func TestBisectMatchesMaxLoadPerRow(t *testing.T) {
	// Rows 0-2 share a group with row-specific boundaries; rows 3 and 4
	// are alone; row 4 fails at Lo, row 1 passes at Hi.
	boundary := []float64{0.42, 0.96, 0.13, 0.77, 0.01}
	group := []int{0, 0, 0, 3, 4}
	for _, tol := range []float64{0.1, 0.003} {
		tols := make([]float64, len(group))
		for i := range tols {
			tols[i] = tol
		}
		for _, workers := range []int{1, 2, 3, 8, 64} {
			var mu sync.Mutex
			runs := map[[2]float64]int{}
			loads, _, err := bisect(parallel.NewPool(workers), DefaultMaxLoadBounds, tols, group,
				func(g int, load float64, rows []int) ([]bool, error) {
					mu.Lock()
					runs[[2]float64{float64(g), load}]++
					mu.Unlock()
					ok := make([]bool, len(rows))
					for k, i := range rows {
						if group[i] != g {
							t.Errorf("row %d asked group %d's probe", i, g)
						}
						ok[k] = load <= boundary[i]
					}
					return ok, nil
				})
			if err != nil {
				t.Fatalf("tol=%v workers=%d: %v", tol, workers, err)
			}
			for i, b := range boundary {
				want, err := MaxLoad(DefaultMaxLoadBounds, tol, func(load float64) (bool, error) { return load <= b, nil })
				if err != nil {
					t.Fatalf("MaxLoad: %v", err)
				}
				if loads[i] != want {
					t.Errorf("tol=%v workers=%d row %d: lockstep %v, MaxLoad %v", tol, workers, i, loads[i], want)
				}
			}
			for k, n := range runs {
				if n != 1 {
					t.Errorf("tol=%v workers=%d: probe %+v ran %d times", tol, workers, k, n)
				}
			}
		}
	}
}

// TestEarlyStopSharedVerdictsMatchFullRuns is the differential proof of
// the search's two savings. Over 2 560 row verdicts — TF-EDFQ, T-EDFQ,
// FIFO and PRIQ, four SLO rows, eight seeds (even seeds one class, odd
// seeds two), twenty loads across [0.05, 0.95] — each row's verdict read
// off an early-stopping probe equals the verdict of that row's own full
// run. A probe is shared by all four SLO rows for FIFO and PRIQ, and for
// TF-EDFQ and T-EDFQ with one class; the full runs of the rows sharing a
// probe must be one run, bit for bit. Some probes must have stopped, some
// deadline probes must have been shared, and some verdicts must pass and
// some fail, or the proof covers nothing.
func TestEarlyStopSharedVerdictsMatchFullRuns(t *testing.T) {
	fid := Fidelity{Queries: 1200, Warmup: 120, MinSamples: 10, LoadTol: 0.02}
	slos := []float64{0.75, 1, 1.5, 2}
	var loads []float64
	for i := 0; i < 20; i++ {
		loads = append(loads, 0.05+0.9*float64(i)/19)
	}
	seeds := make([][]Scenario, 8)
	for i := range seeds {
		f := fid
		f.Seed = int64(i + 1)
		seeds[i] = sweepRows(t, []core.Spec{core.TFEDFQ, core.TEDFQ, core.FIFO, core.PRIQ}, slos, 1+i%2, f)
	}
	type tally struct{ probes, stopped, sharedEDF, verdicts, passes int }
	tallies, err := parallel.Map(nil, len(seeds), func(seed int) (tally, error) {
		var tl tally
		rows := seeds[seed]
		group := probeGroups(rows)
		plans, err := planRows(rows, DefaultMaxLoadBounds.Lo)
		if err != nil {
			return tl, err
		}
		members := map[int][]int{}
		var order []int
		for i, g := range group {
			if members[g] == nil {
				order = append(order, g)
			}
			members[g] = append(members[g], i)
		}
		for _, load := range loads {
			for _, g := range order {
				asked := members[g]
				ok, stopped, err := probeRows(rows, plans, asked, load, Scenario.Build)
				if err != nil {
					return tl, err
				}
				tl.probes++
				if stopped {
					tl.stopped++
				}
				if len(asked) > 1 && rows[asked[0]].Spec.Deadline != core.DeadlineNone {
					tl.sharedEDF++
				}
				// Compared before any verdict: reading a quantile reorders
				// a recorder's samples.
				full := make([]*cluster.Result, len(asked))
				for k, i := range asked {
					s := rows[i]
					s.Load = load
					if full[k], err = s.Run(); err != nil {
						return tl, err
					}
					if err := sameRun(full[0], full[k]); err != nil {
						return tl, fmt.Errorf("seed %d %s %d-class load %.4f: full runs of the rows sharing a probe differ: %v",
							s.Fidelity.Seed, s.Spec.Name, s.Classes.Len(), load, err)
					}
				}
				for k, i := range asked {
					s := rows[i]
					want, _, err := full[k].MeetsSLOs(s.Classes, s.Fidelity.MinSamples)
					if err != nil {
						return tl, err
					}
					if ok[k] != want {
						return tl, fmt.Errorf("seed %d %s %d-class SLO %v load %.4f: probe verdict %v (stopped %v, shared by %d rows), full run %v",
							s.Fidelity.Seed, s.Spec.Name, s.Classes.Len(), slos[i%len(slos)], load, ok[k], stopped, len(asked), want)
					}
					tl.verdicts++
					if want {
						tl.passes++
					}
				}
			}
		}
		return tl, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum tally
	for _, tl := range tallies {
		sum.probes += tl.probes
		sum.stopped += tl.stopped
		sum.sharedEDF += tl.sharedEDF
		sum.verdicts += tl.verdicts
		sum.passes += tl.passes
	}
	t.Logf("%d probes (%d stopped early, %d shared by deadline rows) gave %d row verdicts (%d passes), all equal to full runs",
		sum.probes, sum.stopped, sum.sharedEDF, sum.verdicts, sum.passes)
	if sum.verdicts < 960 || sum.stopped == 0 || sum.sharedEDF == 0 || sum.passes == 0 || sum.passes == sum.verdicts {
		t.Errorf("coverage: %d verdicts from %d probes, %d stopped, %d shared deadline probes, %d verdicts passed; want >= 960 verdicts, some stopped, some shared deadline probes, some passing and some failing",
			sum.verdicts, sum.probes, sum.stopped, sum.sharedEDF, sum.passes)
	}
}
