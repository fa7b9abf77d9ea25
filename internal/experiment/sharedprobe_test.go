package experiment

import (
	"math"
	"testing"

	"tailguard/internal/cluster"
	"tailguard/internal/core"
	"tailguard/internal/dist"
	"tailguard/internal/trace"
	"tailguard/internal/workload"
)

// TestSharedProbeExactAtOrderFlip: two single-class TF-EDFQ rows differ
// only in their SLO (5.85 and 5.86 ms), so they share probes. In a crafted
// stream, query 0 holds server 0 until t = 5 while query 1 (fanout 1,
// arriving at t = 1) and query 2 (fanout 2) wait there, and the pop at
// t = 5 decides between them. Query 2 arrives where the rows' absolute
// deadlines fl(t0 + fl(SLO − x_p^u(kf))) order the pair differently. The
// rows' own runs are still one run to the last bit, because the cluster
// stamps EDF keys without the SLO, and the shared probe gives each row
// its own run's verdict. MinSamples 2 leaves the fanout-2 query unchecked.
func TestSharedProbeExactAtOrderFlip(t *testing.T) {
	fan, err := workload.NewWeighted([]int{1, 2}, []float64{1, 1})
	if err != nil {
		t.Fatalf("NewWeighted: %v", err)
	}
	w := dist.MustTailbenchWorkload("masstree")
	var rows []Scenario
	var dl [2]*core.Deadliner
	for i, slo := range []float64{5.85, 5.86} {
		classes, _ := workload.SingleClass(slo)
		rows = append(rows, Scenario{
			Workload: w, Servers: 4, Spec: core.TFEDFQ, Fanout: fan,
			Classes: classes, Load: 0.3, Fidelity: Fidelity{Queries: 3, MinSamples: 2, LoadTol: 0.1},
		})
		if dl[i], err = rows[i].deadliner(); err != nil {
			t.Fatalf("deadliner: %v", err)
		}
	}
	if probeGroups(rows)[1] != 0 {
		t.Fatal("the two SLO rows are not probeTwins")
	}
	// Query 2 goes first for row i iff it arrives before first(i).
	first := func(i int, t0 float64) bool {
		d1, _ := dl[i].Deadline(1, 0, 1)
		d2, _ := dl[i].Deadline(t0, 0, 2)
		return d2 < d1
	}
	d1, _ := dl[0].Deadline(1, 0, 1)
	d2, _ := dl[0].Deadline(0, 0, 2)
	flip := d1 - d2 // where the exact deadlines meet
	for i := 0; i < 32; i++ {
		flip = math.Nextafter(flip, math.Inf(-1))
	}
	for i := 0; i < 64 && first(0, flip) == first(1, flip); i++ {
		flip = math.Nextafter(flip, math.Inf(1))
	}
	if first(0, flip) == first(1, flip) || flip <= 1 || flip >= 5 {
		t.Fatalf("no arrival in (1, 5) near %v orders the pair differently for the two rows", d1-d2)
	}

	build := replaying([]trace.Record{
		{ID: 0, Arrival: 0, Servers: []int{0}, Services: []float64{5}},
		{ID: 1, Arrival: 1, Servers: []int{0}, Services: []float64{1}},
		{ID: 2, Arrival: flip, Servers: []int{0, 1}, Services: []float64{1, 1}},
	})
	var own [2]*cluster.Result
	for i, s := range rows {
		cfg, err := build(s)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		if own[i], err = cluster.Run(cfg); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if err := sameRun(own[0], own[1]); err != nil {
		t.Fatalf("arrival %v: the SLO rows' own runs differ: %v", flip, err)
	}
	// No early-stop checks: a census counts the generator's stream, not
	// the replayed one.
	ok, _, err := probeRows(rows, make([]rowPlan, len(rows)), []int{0, 1}, rows[0].Load, build)
	if err != nil {
		t.Fatalf("probeRows: %v", err)
	}
	for k, s := range rows {
		if want, _, err := own[k].MeetsSLOs(s.Classes, s.Fidelity.MinSamples); err != nil || ok[k] != want {
			t.Errorf("row %d: shared verdict %v, its own run %v (%v)", k, ok[k], want, err)
		}
	}
}

// sameRun compares the runs of two rows that differ only in their SLOs:
// every counter and recorder bit for bit (Result.Equal), bar the task-miss
// ratio, whose test reads the SLO itself.
func sameRun(a, b *cluster.Result) error {
	c := *b
	c.TaskMissRatio = a.TaskMissRatio
	return a.Equal(&c)
}

// replaying returns a Scenario.Build that swaps the scenario's generator
// for a fresh replay of recs.
func replaying(recs []trace.Record) func(Scenario) (cluster.Config, error) {
	return func(s Scenario) (cluster.Config, error) {
		cfg, err := s.Build()
		if err != nil {
			return cfg, err
		}
		cfg.Generator, err = trace.NewReplayer(recs)
		return cfg, err
	}
}
