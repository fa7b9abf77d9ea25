package request

import (
	"fmt"
	"math/rand"

	"tailguard/internal/cluster"
	"tailguard/internal/core"
	"tailguard/internal/dist"
	"tailguard/internal/metrics"
	"tailguard/internal/workload"
)

// RunConfig configures a request-workload simulation.
type RunConfig struct {
	Plan     Plan
	Servers  int
	Spec     core.Spec
	Service  dist.Distribution // homogeneous task service-time model
	Strategy Strategy
	// Load is the target cluster utilization; the request arrival rate is
	// derived from it and the plan's total task count.
	Load     float64
	Requests int
	Warmup   int // requests excluded from statistics
	Seed     int64
	// BudgetSamples sizes the Monte Carlo estimate of x_p^{R,u}
	// (default 200000).
	BudgetSamples int
}

// Result aggregates a request-workload run.
type Result struct {
	Cluster     *cluster.Result
	PerRequest  *metrics.LatencyRecorder // request latencies (post-warmup)
	XpRu        float64                  // x_p^{R,u}: unloaded request tail
	TotalBudget float64                  // T_b^R = SLO - x_p^{R,u}
	Budgets     []float64                // per-query budgets T_b,i
	TailMs      float64                  // measured request tail at Plan.Percentile
	MeetsSLO    bool
}

// reqState tracks one in-flight request.
type reqState struct {
	firstArrival float64
	nextQuery    int
}

// requestWorkload wires a request plan into the cluster simulator: it is
// the query source for each request's first query, and the completion hook
// chains the remaining queries and records request latencies.
//
// The single rng is shared between arrival-gap sampling (NextInto) and server
// placement (place) deliberately: the cluster simulator's event loop
// is single-goroutine, so the accesses never race, and both consumers
// drawing from one seeded stream is what makes a run a deterministic
// function of RunConfig.Seed. Splitting it into per-purpose RNGs would
// change every seeded result for no concurrency benefit.
type requestWorkload struct {
	cfg      RunConfig
	budgets  []float64
	rng      *rand.Rand
	perm     []int
	now      float64
	gap      workload.ArrivalProcess
	nextReq  int64
	pending  map[int64]*reqState
	recorder *metrics.LatencyRecorder
	err      error
}

// NextInto implements workload.QuerySource: the first query of each
// request.
func (w *requestWorkload) NextInto(q *workload.Query) bool {
	if w.nextReq >= int64(w.cfg.Requests) {
		return false
	}
	w.now += w.gap.NextGap(w.rng)
	req := w.nextReq
	w.nextReq++
	w.pending[req] = &reqState{firstArrival: w.now, nextQuery: 1}
	*q = w.query(req, 0, w.now)
	return true
}

// query materializes query idx of request req arriving at the given time.
func (w *requestWorkload) query(req int64, idx int, arrival float64) workload.Query {
	m := len(w.cfg.Plan.Fanouts)
	fanout := w.cfg.Plan.Fanouts[idx]
	return workload.Query{
		ID:        req*int64(m) + int64(idx),
		Arrival:   arrival,
		Class:     0,
		Fanout:    fanout,
		Servers:   w.place(fanout),
		Budget:    w.budgets[idx],
		HasBudget: true,
		Request:   req,
	}
}

// place draws fanout distinct servers (partial Fisher-Yates).
func (w *requestWorkload) place(fanout int) []int {
	n := len(w.perm)
	out := make([]int, fanout)
	for i := 0; i < fanout; i++ {
		j := i + w.rng.Intn(n-i)
		w.perm[i], w.perm[j] = w.perm[j], w.perm[i]
		out[i] = w.perm[i]
	}
	return out
}

// hook is the cluster OnQueryDone callback: issue the next query of the
// request, or record the finished request.
func (w *requestWorkload) hook(q workload.Query, _ float64, now float64) []workload.Query {
	st, ok := w.pending[q.Request]
	if !ok {
		w.err = fmt.Errorf("request: completion for unknown request %d", q.Request)
		return nil
	}
	m := len(w.cfg.Plan.Fanouts)
	if st.nextQuery < m {
		idx := st.nextQuery
		st.nextQuery++
		return []workload.Query{w.query(q.Request, idx, now)}
	}
	delete(w.pending, q.Request)
	if q.Request >= int64(w.cfg.Warmup) {
		if err := w.recorder.Observe(now - st.firstArrival); err != nil {
			w.err = err
		}
	}
	return nil
}

// Run executes a request-workload simulation under the given policy and
// budget strategy.
func Run(cfg RunConfig) (*Result, error) {
	if err := cfg.Plan.validate(); err != nil {
		return nil, err
	}
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("request: need >= 1 server, got %d", cfg.Servers)
	}
	if cfg.Service == nil {
		return nil, fmt.Errorf("request: service distribution required")
	}
	if cfg.Strategy == nil {
		return nil, fmt.Errorf("request: budget strategy required")
	}
	if cfg.Requests < 1 {
		return nil, fmt.Errorf("request: need >= 1 request, got %d", cfg.Requests)
	}
	if cfg.Warmup < 0 || cfg.Warmup >= cfg.Requests {
		return nil, fmt.Errorf("request: warmup %d outside [0, %d)", cfg.Warmup, cfg.Requests)
	}
	if cfg.Load <= 0 {
		return nil, fmt.Errorf("request: load must be positive, got %v", cfg.Load)
	}
	maxFanout := 0
	totalTasks := 0
	for _, k := range cfg.Plan.Fanouts {
		totalTasks += k
		if k > maxFanout {
			maxFanout = k
		}
	}
	if maxFanout > cfg.Servers {
		return nil, fmt.Errorf("request: max fanout %d exceeds cluster size %d", maxFanout, cfg.Servers)
	}
	samples := cfg.BudgetSamples
	if samples == 0 {
		samples = 200000
	}

	// Eqn. 7: T_b^R = x_p^{R,SLO} - x_p^{R,u}; then split across queries.
	xpRu, err := UnloadedRequestQuantile(cfg.Service, cfg.Plan.Fanouts, cfg.Plan.Percentile, samples, cfg.Seed)
	if err != nil {
		return nil, err
	}
	totalBudget := cfg.Plan.SLOMs - xpRu
	xpu := make([]float64, len(cfg.Plan.Fanouts))
	for i, k := range cfg.Plan.Fanouts {
		x, err := dist.HomogeneousQueryQuantile(cfg.Service, k, cfg.Plan.Percentile)
		if err != nil {
			return nil, err
		}
		xpu[i] = x
	}
	budgets, err := cfg.Strategy.Assign(totalBudget, xpu)
	if err != nil {
		return nil, err
	}

	// Arrival rate from target load: each request contributes totalTasks
	// tasks of mean service Service.Mean().
	rate, err := workload.RateForLoad(cfg.Load, cfg.Servers, float64(totalTasks), cfg.Service.Mean())
	if err != nil {
		return nil, err
	}
	arr, err := workload.NewPoisson(rate)
	if err != nil {
		return nil, err
	}

	w := &requestWorkload{
		cfg:      cfg,
		budgets:  budgets,
		rng:      rand.New(rand.NewSource(cfg.Seed + 1)),
		perm:     make([]int, cfg.Servers),
		gap:      arr,
		pending:  make(map[int64]*reqState),
		recorder: metrics.NewLatencyRecorder(cfg.Requests - cfg.Warmup),
	}
	for i := range w.perm {
		w.perm[i] = i
	}

	classes, err := workload.NewClassSet([]workload.Class{{
		ID: 0, Name: "request", SLOMs: cfg.Plan.SLOMs, Percentile: cfg.Plan.Percentile, Weight: 1,
	}})
	if err != nil {
		return nil, err
	}
	est, err := core.NewHomogeneousStaticTailEstimator(cfg.Service, cfg.Servers)
	if err != nil {
		return nil, err
	}
	dl, err := core.NewDeadliner(cfg.Spec, est, classes)
	if err != nil {
		return nil, err
	}

	m := len(cfg.Plan.Fanouts)
	cres, err := cluster.Run(cluster.Config{
		Servers:      cfg.Servers,
		Spec:         cfg.Spec,
		ServiceTimes: []dist.Distribution{cfg.Service},
		Generator:    w,
		Classes:      classes,
		Deadliner:    dl,
		Queries:      cfg.Requests, // first queries come from the source
		Warmup:       cfg.Warmup * m,
		Seed:         cfg.Seed + 2,
		OnQueryDone:  w.hook,
	})
	if err != nil {
		return nil, err
	}
	if w.err != nil {
		return nil, w.err
	}

	res := &Result{
		Cluster:     cres,
		PerRequest:  w.recorder,
		XpRu:        xpRu,
		TotalBudget: totalBudget,
		Budgets:     budgets,
	}
	if w.recorder.Count() > 0 {
		tail, err := w.recorder.Quantile(cfg.Plan.Percentile)
		if err != nil {
			return nil, err
		}
		res.TailMs = tail
		res.MeetsSLO = tail <= cfg.Plan.SLOMs
	}
	return res, nil
}
