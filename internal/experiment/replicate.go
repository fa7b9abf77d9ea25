package experiment

import (
	"fmt"
	"math"

	"tailguard/internal/parallel"
)

// Replicated is a replicated measurement: mean, sample standard
// deviation, and the individual replicate values.
type Replicated struct {
	Mean   float64
	StdDev float64
	Values []float64
}

// summarize computes the mean and sample standard deviation. An empty
// input yields the zero Replicated (not a NaN mean).
func summarize(values []float64) Replicated {
	if len(values) == 0 {
		return Replicated{}
	}
	r := Replicated{Values: values}
	for _, v := range values {
		r.Mean += v
	}
	r.Mean /= float64(len(values))
	if len(values) > 1 {
		var ss float64
		for _, v := range values {
			d := v - r.Mean
			ss += d * d
		}
		r.StdDev = math.Sqrt(ss / float64(len(values)-1))
	}
	return r
}

// replicateSeed derives replicate i's base seed from the scenario's.
// It is shared by ReplicatedScenarioMaxLoad and the replicated figure
// generators so both report the same numbers for the same inputs.
func replicateSeed(base int64, i int) int64 {
	return parallel.DeriveSeed(base, i)
}

// ReplicatedScenarioMaxLoad repeats the max-load search with independent
// seeds and reports the spread — the honest way to quote a max-load
// number, since a single search inherits the tail noise of each probe.
// The replicates are the rows of one lockstep search on the fidelity's
// worker pool; seeds are a pure function of (base seed, replicate
// index), so the values are identical at any worker count.
func ReplicatedScenarioMaxLoad(s Scenario, bounds MaxLoadBounds, replicates int) (Replicated, error) {
	if replicates < 2 {
		return Replicated{}, fmt.Errorf("experiment: need >= 2 replicates, got %d", replicates)
	}
	rows := make([]Scenario, replicates)
	for i := range rows {
		rows[i] = s
		rows[i].Fidelity.Seed = replicateSeed(s.Fidelity.Seed, i)
	}
	values, err := searchMaxLoads(s.Fidelity.pool(), rows, bounds)
	if err != nil {
		return Replicated{}, err
	}
	return summarize(values), nil
}
