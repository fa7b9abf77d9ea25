package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"tailguard/internal/dist"
)

// TailEstimator maintains the per-task-server unloaded task response time
// distributions F_l(t) and answers the unloaded query tail quantile
// x_p^u(kf) queries that the deadline rule of Eqn. 6 needs. It implements
// the paper's combined offline estimation + periodic online updating
// process (Section III.B.2):
//
//   - Offline: every server starts from a common seed distribution F(t)
//     measured on one representative server (homogeneous-cluster
//     assumption).
//   - Online: each merged task result contributes its observed
//     post-queuing time to the owning server's OnlineCDF, capturing
//     heterogeneity and drift.
//
// The estimator computes; it does not cache. Deadliner keeps the derived
// budgets in a dense table and drops it when Epoch moves on, which is
// what makes deadline estimation O(1) per query in the steady state —
// the paper's "lightweight" claim.
//
// TailEstimator is safe for concurrent use.
type TailEstimator struct {
	servers []*dist.OnlineCDF
	static  []dist.Distribution // non-updating alternative to servers
	// epoch counts version advances across all online CDFs: one load
	// tells a consumer whether anything it derived is stale.
	epoch atomic.Uint64
}

// NewTailEstimator creates an estimator for n servers, each seeded from
// the offline distribution with seedSamples synthetic samples. When
// halfLife > 0, online observations decay with that half-life (in
// samples), letting the estimate track drift.
func NewTailEstimator(n int, offline dist.Distribution, seedSamples, halfLife int) (*TailEstimator, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: estimator needs >= 1 server, got %d", n)
	}
	if offline == nil {
		return nil, fmt.Errorf("core: estimator needs an offline seed distribution")
	}
	if seedSamples < 1 {
		return nil, fmt.Errorf("core: estimator needs >= 1 seed sample, got %d", seedSamples)
	}
	e := &TailEstimator{servers: make([]*dist.OnlineCDF, n)}
	for i := range e.servers {
		o := dist.NewOnlineCDF(dist.OnlineCDFConfig{HalfLife: halfLife})
		if err := o.Seed(offline, seedSamples); err != nil {
			return nil, fmt.Errorf("core: seeding server %d: %w", i, err)
		}
		e.servers[i] = o
	}
	return e, nil
}

// NewStaticTailEstimator creates an estimator whose per-server
// distributions are fixed analytic models, bypassing online updating.
// The simulation case studies use it with the exact workload model, which
// matches the paper's simulation setup ("Fl(t)=F(t) for l=1..N ... which
// do not change over time").
func NewStaticTailEstimator(servers []dist.Distribution) (*TailEstimator, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("core: estimator needs >= 1 server distribution")
	}
	for i, d := range servers {
		if d == nil {
			return nil, fmt.Errorf("core: nil distribution for server %d", i)
		}
	}
	return &TailEstimator{static: append([]dist.Distribution(nil), servers...)}, nil
}

// NewHomogeneousStaticTailEstimator is NewStaticTailEstimator with one
// shared model replicated across n servers.
func NewHomogeneousStaticTailEstimator(d dist.Distribution, n int) (*TailEstimator, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: estimator needs >= 1 server, got %d", n)
	}
	servers := make([]dist.Distribution, n)
	for i := range servers {
		servers[i] = d
	}
	return NewStaticTailEstimator(servers)
}

// Servers returns the number of task servers tracked.
func (e *TailEstimator) Servers() int {
	if e.static != nil {
		return len(e.static)
	}
	return len(e.servers)
}

// Observe feeds one observed task post-queuing time for the given server
// into the online updating process. It is a no-op (with an error) for
// static estimators.
func (e *TailEstimator) Observe(server int, postQueuingMs float64) error {
	if e.static != nil {
		return fmt.Errorf("core: static estimator does not accept observations")
	}
	if server < 0 || server >= len(e.servers) {
		return fmt.Errorf("core: server %d out of range [0, %d)", server, len(e.servers))
	}
	advanced, err := e.servers[server].AddVersioned(postQueuingMs)
	if advanced {
		e.epoch.Add(1)
	}
	return err
}

// Epoch returns a counter that moves whenever an online CDF's version
// advances, i.e. whenever quantities derived from the estimator should
// be recomputed. It is constant for static estimators, and for the nil
// estimator of deadline-blind policies.
//
//tg:hotpath
func (e *TailEstimator) Epoch() uint64 {
	if e == nil {
		return 0
	}
	return e.epoch.Load()
}

// serverDist returns the current distribution handle for server l.
func (e *TailEstimator) serverDist(l int) dist.Distribution {
	if e.static != nil {
		return e.static[l]
	}
	return e.servers[l]
}

// XPuFanout returns x_p^u(kf) for a query fanned out to kf servers under
// the homogeneous assumption, using server 0's distribution as the
// representative F(t): x_p^u(kf) = F^{-1}(p^{1/kf}) (Eqn. 2). It is the
// budget table's miss handler: computed on every call, never cached here.
func (e *TailEstimator) XPuFanout(percentile float64, fanout int) (float64, error) {
	if fanout < 1 {
		return 0, fmt.Errorf("core: fanout must be >= 1, got %d", fanout)
	}
	if percentile <= 0 || percentile >= 1 {
		return 0, fmt.Errorf("core: percentile %v outside (0, 1)", percentile)
	}
	return dist.HomogeneousQueryQuantile(e.serverDist(0), fanout, percentile)
}

// XPuServers returns x_p^u for a query dispatched to the specific server
// set, using the per-server distributions (the heterogeneous form of
// Eqns. 1-2). Not cached: server sets vary per query, so the sched and
// saas paths pay the bisection on every query — measured at 83 µs for a
// 4-server set (the benchmark's sched.budget_ns), most of a sched.Do.
func (e *TailEstimator) XPuServers(percentile float64, servers []int) (float64, error) {
	if len(servers) == 0 {
		return 0, fmt.Errorf("core: empty server set")
	}
	n := e.Servers()
	ds := make([]dist.Distribution, len(servers))
	for i, s := range servers {
		if s < 0 || s >= n {
			return 0, fmt.Errorf("core: server %d out of range [0, %d)", s, n)
		}
		ds[i] = e.serverDist(s)
	}
	return dist.QueryQuantile(ds, percentile)
}

// ServerQuantile exposes a single server's current p-quantile, used by
// diagnostics and the testbed's CDF reporting.
func (e *TailEstimator) ServerQuantile(server int, p float64) (float64, error) {
	n := e.Servers()
	if server < 0 || server >= n {
		return 0, fmt.Errorf("core: server %d out of range [0, %d)", server, n)
	}
	q := e.serverDist(server).Quantile(p)
	if math.IsNaN(q) {
		return 0, fmt.Errorf("core: server %d quantile is NaN", server)
	}
	return q, nil
}
