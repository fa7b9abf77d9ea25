package experiment

import (
	"fmt"
	"reflect"

	"tailguard/internal/cluster"
	"tailguard/internal/core"
	"tailguard/internal/dist"
	"tailguard/internal/workload"
)

// ArrivalKind selects the query arrival process.
type ArrivalKind string

// Arrival kinds.
const (
	Poisson ArrivalKind = "poisson"
	Pareto  ArrivalKind = "pareto"
)

// Scenario declares one simulation setup at a given load; Build turns it
// into a runnable cluster.Config. The zero value is not valid — populate
// every field group as the case studies do.
type Scenario struct {
	Workload *dist.Workload // service-time model (Tailbench)
	Servers  int            // cluster size N
	Spec     core.Spec      // queuing policy
	Fanout   workload.FanoutDist
	Classes  *workload.ClassSet
	Arrival  ArrivalKind // default Poisson
	// ParetoAlpha is the Pareto shape when Arrival == Pareto
	// (default workload.DefaultParetoAlpha).
	ParetoAlpha float64
	Load        float64
	Fidelity    Fidelity
	// AdmissionWindowMs/AdmissionThreshold enable admission control when
	// the window is positive. The window is a moving time span (ms of
	// simulated time), sized to the horizon over which the SLO must hold.
	AdmissionWindowMs  float64
	AdmissionThreshold float64
	// Shards > 1 runs the cluster on the sharded parallel core
	// (cluster.Config.Shards); results are bit-identical to the
	// sequential engine (DESIGN.md §13). ShardWindowMs optionally
	// overrides the synchronization window width.
	Shards        int
	ShardWindowMs float64
}

// validate checks that every field group is populated.
func (s Scenario) validate() error {
	if s.Workload == nil {
		return fmt.Errorf("experiment: scenario needs a workload")
	}
	if s.Servers < 1 {
		return fmt.Errorf("experiment: scenario needs >= 1 server")
	}
	if s.Fanout == nil {
		return fmt.Errorf("experiment: scenario needs a fanout distribution")
	}
	if s.Classes == nil {
		return fmt.Errorf("experiment: scenario needs a class set")
	}
	if s.Load <= 0 || s.Load > 2 {
		return fmt.Errorf("experiment: load %v outside (0, 2]", s.Load)
	}
	return s.Fidelity.validate()
}

// Build assembles the cluster configuration (generator, estimator,
// deadliner, admission) for this scenario.
func (s Scenario) Build() (cluster.Config, error) {
	gen, err := s.generator()
	if err != nil {
		return cluster.Config{}, err
	}
	dl, err := s.deadliner()
	if err != nil {
		return cluster.Config{}, err
	}
	cfg := cluster.Config{
		Servers:       s.Servers,
		Spec:          s.Spec,
		ServiceTimes:  []dist.Distribution{s.Workload.ServiceTime},
		Generator:     gen,
		Classes:       s.Classes,
		Deadliner:     dl,
		Queries:       s.Fidelity.Queries,
		Warmup:        s.Fidelity.Warmup,
		Seed:          s.Fidelity.Seed + 1,
		Shards:        s.Shards,
		ShardWindowMs: s.ShardWindowMs,
	}
	if s.AdmissionWindowMs > 0 {
		adm, err := core.NewAdmissionController(s.AdmissionWindowMs, s.AdmissionThreshold)
		if err != nil {
			return cluster.Config{}, err
		}
		cfg.Admission = adm
	}
	return cfg, nil
}

// deadliner builds the scenario's deadline calculator over the static
// model of its workload.
func (s Scenario) deadliner() (*core.Deadliner, error) {
	est, err := core.NewHomogeneousStaticTailEstimator(s.Workload.ServiceTime, s.Servers)
	if err != nil {
		return nil, err
	}
	return core.NewDeadliner(s.Spec, est, s.Classes)
}

// generator validates the scenario and builds its query source at its
// load.
func (s Scenario) generator() (*workload.Generator, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	rate, err := workload.RateForLoad(s.Load, s.Servers, s.Fanout.MeanTasks(), s.Workload.ServiceTime.Mean())
	if err != nil {
		return nil, err
	}
	var arrival workload.ArrivalProcess
	switch s.Arrival {
	case Poisson, "":
		arrival, err = workload.NewPoisson(rate)
	case Pareto:
		alpha := s.ParetoAlpha
		if alpha == 0 {
			alpha = workload.DefaultParetoAlpha
		}
		arrival, err = workload.NewPareto(rate, alpha)
	default:
		return nil, fmt.Errorf("experiment: unknown arrival kind %q", s.Arrival)
	}
	if err != nil {
		return nil, err
	}
	return workload.NewGenerator(workload.GeneratorConfig{
		Servers: s.Servers,
		Arrival: arrival,
		Fanout:  s.Fanout,
		Classes: s.Classes,
	}, s.Fidelity.Seed)
}

// census counts the post-warmup queries of each (class, fanout) type in
// the scenario's stream, at class*(Fanout.Max()+1)+fanout: the sample
// count every run of the scenario ends with when no query is rejected or
// lost. It advances the generator without simulating. The count does not
// depend on the load: Poisson and Pareto draw each gap with one call
// whatever the rate, so query i's class, fanout and placement come from
// the same draws at every load.
func (s Scenario) census() ([]int, error) {
	gen, err := s.generator()
	if err != nil {
		return nil, err
	}
	stride := s.Fanout.Max() + 1
	counts := make([]int, s.Classes.Len()*stride)
	var q workload.Query
	for i := 0; i < s.Fidelity.Queries; i++ {
		gen.NextInto(&q)
		if i >= s.Fidelity.Warmup {
			counts[q.Class*stride+q.Fanout]++
		}
		gen.Recycle(q.Servers)
	}
	return counts, nil
}

// sameStream reports whether a and b draw the same query stream: query
// for query the same classes, fanouts and placements, with arrival gaps
// that differ at most by a rate factor.
func sameStream(a, b Scenario) bool {
	return a.Servers == b.Servers && a.Arrival == b.Arrival && a.ParetoAlpha == b.ParetoAlpha &&
		a.Fidelity.Seed == b.Fidelity.Seed && a.Fidelity.Queries == b.Fidelity.Queries &&
		a.Fidelity.Warmup == b.Fidelity.Warmup && sameFanout(a.Fanout, b.Fanout) && sameMix(a.Classes, b.Classes)
}

// probeTwins reports whether one run answers both a's and b's max-load
// probes at any load: the two simulate the same stream through the same
// cluster and policy with admission control (whose threshold reads the
// miss ratio) off, and the policy cannot tell their SLOs apart. Only
// their verdicts, read against each one's own class SLOs, differ. That
// holds in two cases:
//
//   - The policy never reads a deadline (FIFO, PRIQ).
//   - The policy is EDF over deadlines t0 + SLO − x_p^u (T-EDFQ,
//     TF-EDFQ), and both rows have one class with the same percentile,
//     so x_p^u is the same and the SLO shifts every deadline by one
//     constant. The cluster stamps keys without it (core.Deadliner.Key),
//     so both rows stamp the same bits and pop in the same order.
func probeTwins(a, b Scenario) bool {
	if a.AdmissionWindowMs > 0 || b.AdmissionWindowMs > 0 || a.Spec != b.Spec || a.Workload != b.Workload ||
		a.Fidelity != b.Fidelity || a.Shards != b.Shards || a.ShardWindowMs != b.ShardWindowMs || !sameStream(a, b) {
		return false
	}
	if a.Spec.Deadline == core.DeadlineNone {
		return true
	}
	return a.Classes.Len() == 1 && b.Classes.Len() == 1 &&
		a.Classes.Classes()[0].Percentile == b.Classes.Classes()[0].Percentile
}

// sameFanout compares two fanout distributions by identity (or value,
// for value types), never panicking on an uncomparable implementation.
func sameFanout(a, b workload.FanoutDist) bool {
	t := reflect.TypeOf(a)
	return t != nil && t.Comparable() && a == b
}

// sameMix reports whether two class sets draw the same class sequence
// and rank classes alike: the same IDs with the same weights. Their SLOs
// and percentiles may differ.
func sameMix(a, b *workload.ClassSet) bool {
	if a == b {
		return true
	}
	ac, bc := a.Classes(), b.Classes()
	if len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		if ac[i].ID != bc[i].ID || ac[i].Weight != bc[i].Weight {
			return false
		}
	}
	return true
}

// Run builds and executes the scenario.
func (s Scenario) Run() (*cluster.Result, error) {
	cfg, err := s.Build()
	if err != nil {
		return nil, err
	}
	return cluster.Run(cfg)
}
