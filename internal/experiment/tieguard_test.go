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

// tieRows are two single-class TF-EDFQ rows on four servers that differ
// only in their SLO (5.85 and 5.86 ms), so they are probeTwins. Their
// fanout mix (1 and 2) is the one tieStream draws, so planRows bounds
// their budgets over exactly its fanouts. MinSamples 2 leaves the
// stream's one fanout-2 query unchecked: a verdict reads only the
// fanout-1 tail.
func tieRows(t *testing.T) []Scenario {
	t.Helper()
	fan, err := workload.NewWeighted([]int{1, 2}, []float64{1, 1})
	if err != nil {
		t.Fatalf("NewWeighted: %v", err)
	}
	w := dist.MustTailbenchWorkload("masstree")
	var rows []Scenario
	for _, slo := range []float64{5.85, 5.86} {
		classes, err := workload.SingleClass(slo)
		if err != nil {
			t.Fatalf("SingleClass: %v", err)
		}
		rows = append(rows, Scenario{
			Workload: w, Servers: 4, Spec: core.TFEDFQ, Fanout: fan, Classes: classes, Load: 0.3,
			Fidelity: Fidelity{Queries: 3, Warmup: 0, MinSamples: 2, LoadTol: 0.1},
		})
	}
	return rows
}

// tieStream is a three-query stream with exact arrival and service times.
// Query 0 holds server 0 from t = 0 to t = 5. Query 1 (fanout 1, server 0)
// arrives at t = 1, and query 2 (fanout 1 on server 0, or fanout 2 on
// servers 0 and 1) at arrival2; both wait in server 0's EDF queue, and the
// pop at t = 5 decides between them. Every other task takes 1 ms, so the
// fanout-1 tail is 5 ms if query 1 goes first and 5.99 ms if it goes
// second (or 5.98 ms over three fanout-1 queries): between the two, the
// rows' SLOs pass or fail with the order.
func tieStream(fanout2 int, arrival2 float64) []trace.Record {
	servers2, services2 := []int{0}, []float64{1}
	if fanout2 == 2 {
		servers2, services2 = []int{0, 1}, []float64{1, 1}
	}
	return []trace.Record{
		{ID: 0, Arrival: 0, Servers: []int{0}, Services: []float64{5}},
		{ID: 1, Arrival: 1, Servers: []int{0}, Services: []float64{1}},
		{ID: 2, Arrival: arrival2, Servers: servers2, Services: services2},
	}
}

// tieCase is one shape of tieStream; tie says whether the pop is a near
// tie under row 0's deadlines, and flips whether the two rows' deadlines
// order it differently.
type tieCase struct {
	name       string
	fanout2    int
	arrival2   float64
	tie, flips bool
}

// tieCases are the stream's shapes. Query 2 ties query 1's deadline
// exactly (same fanout and arrival), or, with fanout 2 (whose larger
// x_p^u a later arrival offsets), lands the smallest step after it under
// row 0's deadlines, trails it by a microsecond, or arrives where the two
// rows' rounded deadlines order the pair differently: the exact gap is
// the same for both rows, and rounding alone decides.
func tieCases(t *testing.T, rows []Scenario) []tieCase {
	t.Helper()
	var deadline [2]func(t0 float64, fanout int) float64
	for i := range deadline {
		dl, err := rows[i].deadliner()
		if err != nil {
			t.Fatalf("deadliner: %v", err)
		}
		deadline[i] = func(t0 float64, fanout int) float64 {
			d, err := dl.Deadline(t0, 0, fanout)
			if err != nil {
				t.Fatalf("Deadline: %v", err)
			}
			return d
		}
	}
	// A deadline at t0 = 0 is the budget itself.
	first := deadline[0](1, 1)
	near := first - deadline[0](0, 2)
	for deadline[0](near, 2) <= first {
		near = math.Nextafter(near, math.Inf(1))
	}
	agree := func(t0 float64) bool {
		return (deadline[0](t0, 2) < first) == (deadline[1](t0, 2) < deadline[1](1, 1))
	}
	flip := near
	for i := 0; i < 32; i++ {
		flip = math.Nextafter(flip, math.Inf(-1))
	}
	for i := 0; i < 64 && agree(flip); i++ {
		flip = math.Nextafter(flip, math.Inf(1))
	}
	if agree(flip) {
		t.Fatal("no arrival within 32 steps of the near tie orders the pair differently for the two rows")
	}
	if flip <= 1 || near+1e-3 >= 5 {
		t.Fatalf("arrivals %v..%v outside (1, 5): query 2 would not wait with query 1", flip, near+1e-3)
	}
	return []tieCase{
		{"exact tie", 1, 1, true, false},
		{"near tie", 2, near, true, !agree(near)},
		{"order flips", 2, flip, true, true},
		{"clear lead", 2, near + 1e-3, false, !agree(near + 1e-3)},
	}
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

// ownRun runs row s alone on build's stream, with the tie guard at guard.
func ownRun(t *testing.T, s Scenario, build func(Scenario) (cluster.Config, error), guard float64) *cluster.Result {
	t.Helper()
	cfg, err := build(s)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cfg.TieGuardMs = guard
	res, err := cluster.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestTieGuardMarksNearTies: a run under the tie guard marks NearTie when
// an EDF pop's winner leads the runner-up by nothing (an exact tie) or by
// less than rounding could move, and not for a clear lead. The guard only
// watches: with it off the run never marks, and is otherwise identical.
func TestTieGuardMarksNearTies(t *testing.T) {
	rows := tieRows(t)
	plans, err := planRows(rows, rows[0].Load)
	if err != nil {
		t.Fatalf("planRows: %v", err)
	}
	guard := max(plans[0].budgetMs, plans[1].budgetMs)
	for _, tc := range tieCases(t, rows) {
		build := replaying(tieStream(tc.fanout2, tc.arrival2))
		guarded, plain := ownRun(t, rows[0], build, guard), ownRun(t, rows[0], build, 0)
		if guarded.NearTie != tc.tie {
			t.Errorf("%s: NearTie = %v under a %v ms guard, want %v", tc.name, guarded.NearTie, guard, tc.tie)
		}
		if plain.NearTie {
			t.Errorf("%s: NearTie set with the guard off", tc.name)
		}
		guarded.NearTie = false
		if err := plain.Equal(guarded); err != nil {
			t.Errorf("%s: the guard changed the run: %v", tc.name, err)
		}
	}
}

// TestTieGuardFallsBackToOwnRuns: a probe shared by the two rows gives
// each the verdict of its own full run. Where the guard trips the rows
// after the first are run alone; where the rows' rounded deadlines order
// the pair differently, reading the second row's verdict off the shared
// run would be wrong, so only that fallback keeps the verdict exact.
func TestTieGuardFallsBackToOwnRuns(t *testing.T) {
	rows := tieRows(t)
	if probeGroups(rows)[1] != 0 {
		t.Fatal("the two SLO rows are not probeTwins")
	}
	plans, err := planRows(rows, rows[0].Load)
	if err != nil {
		t.Fatalf("planRows: %v", err)
	}
	for i := range plans {
		// The census counts the generator's stream, not the replayed one.
		plans[i].check = cluster.SLOCheck{}
	}
	for _, tc := range tieCases(t, rows) {
		build := replaying(tieStream(tc.fanout2, tc.arrival2))
		ok, st, err := probeRows(rows, plans, []int{0, 1}, rows[0].Load, build)
		if err != nil {
			t.Fatalf("%s: probeRows: %v", tc.name, err)
		}
		if st.tied != tc.tie {
			t.Errorf("%s: probe tied = %v, want %v", tc.name, st.tied, tc.tie)
		}
		for k, s := range rows {
			want, _, err := ownRun(t, s, build, 0).MeetsSLOs(s.Classes, s.Fidelity.MinSamples)
			if err != nil {
				t.Fatalf("%s: MeetsSLOs: %v", tc.name, err)
			}
			if ok[k] != want {
				t.Errorf("%s: row %d (SLO %v) verdict %v, its own full run %v", tc.name, k, s.Classes.Classes()[0].SLOMs, ok[k], want)
			}
		}
		if tc.flips {
			copied, _, err := ownRun(t, rows[0], build, 0).MeetsSLOs(rows[1].Classes, rows[1].Fidelity.MinSamples)
			if err != nil {
				t.Fatalf("%s: MeetsSLOs: %v", tc.name, err)
			}
			if copied == ok[1] {
				t.Errorf("%s: row 1's verdict off row 0's run is %v, the same as its own; the case shows nothing", tc.name, copied)
			}
		}
	}
}
