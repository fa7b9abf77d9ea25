package workload

import (
	"fmt"
	"math/rand"
)

// Query is one generated query: its arrival time, service class, fanout,
// and the task servers its tasks are dispatched to.
type Query struct {
	ID      int64
	Arrival float64 // absolute arrival time t0 (ms)
	Class   int     // class ID within the generator's ClassSet
	Fanout  int     // kf = len(Servers)
	Servers []int   // distinct task-server indices in [0, N)

	// Services optionally pins each task's service time (parallel to
	// Servers), used by trace replay; when nil the simulator samples from
	// the per-server distributions.
	Services []float64
	// Budget, when HasBudget is set, overrides the policy deadline rule
	// with tD = Arrival + Budget. The request-level decomposition
	// extension uses it to assign per-query pre-dequeuing budgets.
	Budget    float64
	HasBudget bool
	// Request tags the request this query belongs to (request-level
	// extension); -1 or 0 for standalone queries.
	Request int64
}

// QuerySource produces a stream of queries with non-decreasing arrival
// times. Generator is the standard implementation; trace replayers and
// request workloads provide others.
type QuerySource interface {
	// NextInto overwrites every field of *q with the next query, so a
	// caller can fill a pooled query in place. It returns false, leaving
	// *q unspecified, when the stream is exhausted (Generator streams are
	// infinite).
	NextInto(q *Query) bool
}

// GeneratorConfig configures a query generator.
type GeneratorConfig struct {
	Servers int            // cluster size N
	Arrival ArrivalProcess // query arrival process
	Fanout  FanoutDist     // query fanout distribution
	Classes *ClassSet      // service classes and mix
	// Placement optionally overrides uniform-random distinct server
	// selection; it must return kf distinct indices in [0, Servers).
	Placement func(r *rand.Rand, fanout int) []int
}

// Generator produces a deterministic (given the seed) stream of queries.
// It is not safe for concurrent use; each simulation owns one generator.
type Generator struct {
	cfg    GeneratorConfig
	rng    *rand.Rand
	nextID int64
	now    float64
	// scratch for sampling distinct servers without replacement
	perm []int
	// free[k] holds recycled placement slices of fanout k (see Recycle):
	// each slice is minted at its own fanout, so a fanout-1 query costs
	// one int, not maxFanout.
	free [][][]int
}

// NewGenerator validates the configuration and returns a generator seeded
// with the given seed.
func NewGenerator(cfg GeneratorConfig, seed int64) (*Generator, error) {
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("workload: cluster size must be >= 1, got %d", cfg.Servers)
	}
	if cfg.Arrival == nil {
		return nil, fmt.Errorf("workload: arrival process is required")
	}
	if cfg.Fanout == nil {
		return nil, fmt.Errorf("workload: fanout distribution is required")
	}
	if cfg.Classes == nil {
		return nil, fmt.Errorf("workload: class set is required")
	}
	if max := cfg.Fanout.Max(); max > cfg.Servers {
		return nil, fmt.Errorf("workload: max fanout %d exceeds cluster size %d", max, cfg.Servers)
	}
	g := &Generator{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(seed)),
		perm: make([]int, cfg.Servers),
		free: make([][][]int, cfg.Fanout.Max()+1),
	}
	for i := range g.perm {
		g.perm[i] = i
	}
	return g, nil
}

// NextInto implements QuerySource, writing the next query into *q. It
// draws the gap, then the fanout, then the class, then the placement.
// Generator streams never end, so it always returns true.
//
//tg:hotpath
func (g *Generator) NextInto(q *Query) bool {
	g.now += g.cfg.Arrival.NextGap(g.rng)
	fanout := g.cfg.Fanout.Sample(g.rng)
	class := g.cfg.Classes.Sample(g.rng)
	servers := g.place(fanout)
	// Clear, then set field by field: assigning a composite literal to *q
	// would build it on the stack and copy all of it.
	*q = Query{}
	q.ID, q.Arrival, q.Class, q.Fanout, q.Servers = g.nextID, g.now, class, fanout, servers
	g.nextID++
	return true
}

// Next returns the next query in the stream by value; the second result
// is always true. It is NextInto for callers that keep their own copy.
func (g *Generator) Next() (Query, bool) {
	var q Query
	g.NextInto(&q)
	return q, true
}

// place selects fanout distinct servers.
//
//tg:hotpath
func (g *Generator) place(fanout int) []int {
	if g.cfg.Placement != nil {
		return g.cfg.Placement(g.rng, fanout)
	}
	// Partial Fisher-Yates over the persistent permutation buffer: O(kf)
	// per query regardless of N.
	n := len(g.perm)
	var out []int
	if free := g.free[fanout]; len(free) > 0 {
		k := len(free) - 1
		out = free[k]
		free[k] = nil
		g.free[fanout] = free[:k]
	} else {
		out = make([]int, fanout) //tg:cold warm-up, recycled through Recycle
	}
	for i := 0; i < fanout; i++ {
		j := i + g.rng.Intn(n-i)
		g.perm[i], g.perm[j] = g.perm[j], g.perm[i]
		out[i] = g.perm[i]
	}
	return out
}

// Recycle accepts a placement slice previously returned by Next or
// NextInto for reuse by a later query of the same fanout
// (cluster.ServerRecycler). The caller must not use the slice afterwards.
// Slices from a custom Placement function are dropped: their ownership
// belongs to that function. So is anything not shaped like a slice the
// generator mints (length = capacity = a fanout it can draw).
//
//tg:hotpath
func (g *Generator) Recycle(servers []int) {
	k := len(servers)
	if g.cfg.Placement != nil || k == 0 || k >= len(g.free) || cap(servers) != k {
		return
	}
	g.free[k] = append(g.free[k], servers)
}

// Now returns the arrival time of the last generated query.
func (g *Generator) Now() float64 { return g.now }

// Rebaser is implemented by arrival processes that track an internal
// absolute clock (the non-homogeneous ones); Rebase moves that clock
// forward so the next gap is drawn from time t instead of from the last
// arrival. Generator.RebaseTo uses it when a credit gate unblocks.
type Rebaser interface {
	Rebase(t float64)
}

// RebaseTo advances the generator clock to time t, so the next query's
// arrival is drawn from t onward rather than from the last arrival — the
// resume point after the generator was blocked on a credit gate. The
// arrivals the free-running process would have emitted in between are
// dropped, not queued: that is exactly the backpressure semantics. Moving
// backwards is ignored so arrival times stay non-decreasing.
func (g *Generator) RebaseTo(t float64) {
	if t <= g.now {
		return
	}
	g.now = t
	if rb, ok := g.cfg.Arrival.(Rebaser); ok {
		rb.Rebase(t)
	}
}

// RateForLoad converts a target offered load (utilization in [0, 1]) into
// the query arrival rate (queries/ms) that produces it:
//
//	rho = lambda * E[kf] * Tm / N  =>  lambda = rho * N / (E[kf] * Tm)
//
// where Tm is the mean task service time in ms and N the cluster size.
// This is how the paper's x-axes ("Load (%)") map onto arrival rates.
func RateForLoad(load float64, servers int, meanTasks, meanServiceMs float64) (float64, error) {
	if load <= 0 {
		return 0, fmt.Errorf("workload: load must be positive, got %v", load)
	}
	if servers < 1 {
		return 0, fmt.Errorf("workload: cluster size must be >= 1, got %d", servers)
	}
	if meanTasks <= 0 || meanServiceMs <= 0 {
		return 0, fmt.Errorf("workload: mean tasks (%v) and mean service time (%v) must be positive", meanTasks, meanServiceMs)
	}
	return load * float64(servers) / (meanTasks * meanServiceMs), nil
}

// LoadForRate is the inverse of RateForLoad.
func LoadForRate(rate float64, servers int, meanTasks, meanServiceMs float64) (float64, error) {
	if rate <= 0 {
		return 0, fmt.Errorf("workload: rate must be positive, got %v", rate)
	}
	if servers < 1 {
		return 0, fmt.Errorf("workload: cluster size must be >= 1, got %d", servers)
	}
	return rate * meanTasks * meanServiceMs / float64(servers), nil
}
