package tgd

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"tailguard/internal/control"
	"tailguard/internal/core"
	"tailguard/internal/fault"
	"tailguard/internal/obs"
)

// Config configures a Daemon.
type Config struct {
	// Store is the durability seam; nil means a fresh in-memory store
	// (queue lost on restart). New replays the store before serving.
	Store Store
	// Deadliner computes TF-EDFQ budgets for enqueues that do not stamp
	// an explicit deadline — the estimator seam shared with the simulator
	// and testbed. Nil means producers must stamp deadline_ms themselves.
	Deadliner *core.Deadliner
	// Resilience supplies the per-query NACK retry budget (RetryBudget);
	// the other mitigation knobs are dispatcher-side and ignored here.
	Resilience fault.Resilience
	// DefaultLeaseMs is the lease duration granted when a claim does not
	// ask for one (default 2000 ms). MaxLeaseMs caps requests (default
	// 10× the default).
	DefaultLeaseMs float64
	MaxLeaseMs     float64
	// BackoffBaseMs/BackoffCapMs shape the deadline-aware NACK retry
	// backoff (defaults 10 ms / 1000 ms).
	BackoffBaseMs float64
	BackoffCapMs  float64
	// MaxFanout bounds enqueue fanout (default 1024).
	MaxFanout int
	// MaxWaitMs caps long-poll parking (default 30000 ms).
	MaxWaitMs float64
	// RepairEvery is the lease-expiry repair period (default 100 ms);
	// Start launches the loop. Zero keeps the default; tests that drive
	// repair manually simply never call Start.
	RepairEvery time.Duration
	// NowMs supplies the daemon clock in absolute milliseconds. The
	// default reads the wall clock (Unix ms); tests inject a manual
	// clock, which also makes lease expiry and backoff deterministic.
	NowMs func() float64
	// Registry receives daemon metrics; nil creates a private one.
	Registry *obs.Registry
	// Control attaches the adaptive control plane: enqueues hold credits
	// from the controller's gate (429 when exhausted) until their query
	// settles, and Start runs a loop ticking the controller on its own
	// period with the daemon's live miss-ratio deltas. The controller
	// must have a gate attached (control.Controller.AttachGate); queries
	// recovered from the journal re-acquire their credits before the
	// daemon serves. The daemon owns the controller from here on — no
	// other goroutine may call its Tick.
	Control *control.Controller
}

// daemonMetrics are the pre-resolved obs series (DESIGN.md §10: resolve
// at construction, update lock-free on the hot path).
type daemonMetrics struct {
	queries, tasks, claims    *obs.Counter
	completed, duplicates     *obs.Counter
	nacks, retries, expired   *obs.Counter
	done, failed, missed      *obs.Counter
	ready, delayed, leased    *obs.Gauge
	inflight                  *obs.Gauge
	claimWaitMs, turnaroundMs *obs.Summary
}

// Daemon is the networked TF-EDFQ scheduler: the lease table plus its
// HTTP surface, write-ahead store, and repair loop.
type Daemon struct {
	cfg   Config
	table *table
	store Store
	reg   *obs.Registry
	met   daemonMetrics
	ctl   *controlState // nil without Config.Control
	epoch float64       // NowMs at construction (uptime reporting)

	mu      sync.Mutex
	started bool          // guarded by mu
	stop    chan struct{} // guarded by mu (nil until Start)
	loopWG  sync.WaitGroup
}

// New builds a daemon, replaying cfg.Store to recover any journaled
// queue. The store is owned by the daemon from here on (Close closes it).
func New(cfg Config) (*Daemon, error) {
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	if err := cfg.Resilience.Validate(); err != nil {
		return nil, err
	}
	if cfg.DefaultLeaseMs == 0 {
		cfg.DefaultLeaseMs = 2000
	}
	if cfg.DefaultLeaseMs < 0 || math.IsNaN(cfg.DefaultLeaseMs) {
		return nil, fmt.Errorf("tgd: default lease %v ms invalid", cfg.DefaultLeaseMs)
	}
	if cfg.MaxLeaseMs == 0 {
		cfg.MaxLeaseMs = 10 * cfg.DefaultLeaseMs
	}
	if cfg.MaxLeaseMs < cfg.DefaultLeaseMs {
		return nil, fmt.Errorf("tgd: max lease %v ms below default %v ms", cfg.MaxLeaseMs, cfg.DefaultLeaseMs)
	}
	if cfg.BackoffBaseMs == 0 {
		cfg.BackoffBaseMs = 10
	}
	if cfg.BackoffCapMs == 0 {
		cfg.BackoffCapMs = 1000
	}
	if cfg.BackoffBaseMs < 0 || cfg.BackoffCapMs < cfg.BackoffBaseMs {
		return nil, fmt.Errorf("tgd: backoff base %v / cap %v ms invalid", cfg.BackoffBaseMs, cfg.BackoffCapMs)
	}
	if cfg.MaxFanout == 0 {
		cfg.MaxFanout = 1024
	}
	if cfg.MaxFanout < 1 {
		return nil, fmt.Errorf("tgd: max fanout %d < 1", cfg.MaxFanout)
	}
	if cfg.MaxWaitMs == 0 {
		cfg.MaxWaitMs = 30000
	}
	if cfg.RepairEvery == 0 {
		cfg.RepairEvery = 100 * time.Millisecond
	}
	if cfg.RepairEvery < 0 {
		return nil, fmt.Errorf("tgd: repair period %v invalid", cfg.RepairEvery)
	}
	if cfg.NowMs == nil {
		cfg.NowMs = func() float64 { return float64(time.Now().UnixNano()) / 1e6 }
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	tbl, err := newTable(tableConfig{
		resilience:    cfg.Resilience,
		backoffBaseMs: cfg.BackoffBaseMs,
		backoffCapMs:  cfg.BackoffCapMs,
	})
	if err != nil {
		return nil, err
	}
	d := &Daemon{cfg: cfg, table: tbl, store: cfg.Store, reg: cfg.Registry, epoch: cfg.NowMs()}
	if cfg.Control != nil {
		if cfg.Control.Gate() == nil {
			return nil, fmt.Errorf("tgd: Config.Control has no credit gate attached")
		}
		d.ctl = &controlState{ctl: cfg.Control}
	}
	if err := d.registerMetrics(); err != nil {
		return nil, err
	}
	if d.ctl != nil {
		if err := d.registerControlMetrics(); err != nil {
			return nil, err
		}
	}
	records := 0
	err = cfg.Store.Replay(func(r Record) error {
		records++
		switch r.Op {
		case OpEnqueue:
			return tbl.ApplyEnqueue(r.Query)
		case OpComplete:
			return tbl.ApplyComplete(r.QueryID, r.TaskIndex, r.AtMs)
		case OpFail:
			return tbl.ApplyFail(r.QueryID)
		default:
			return fmt.Errorf("tgd: unknown journal op %q", r.Op)
		}
	})
	if err != nil {
		return nil, err
	}
	// Leases do not survive restarts, but stale lease IDs from a prior
	// incarnation must not validate against fresh ones. Start the lease
	// sequence far above anything the previous incarnation (which had
	// fewer journal records) could have issued.
	tbl.mu.Lock()
	tbl.leaseSeq = int64(records+1) << 20
	tbl.mu.Unlock()
	if d.ctl != nil {
		d.recoverCredits()
	}
	return d, nil
}

// registerMetrics resolves the tg daemon metric families once.
func (d *Daemon) registerMetrics() error {
	var err error
	counter := func(name, help string) *obs.Counter {
		if err != nil {
			return nil
		}
		var c *obs.Counter
		c, err = d.reg.Counter(name, help, "")
		return c
	}
	gauge := func(name, help string) *obs.Gauge {
		if err != nil {
			return nil
		}
		var g *obs.Gauge
		g, err = d.reg.Gauge(name, help, "")
		return g
	}
	summary := func(name, help string) *obs.Summary {
		if err != nil {
			return nil
		}
		var s *obs.Summary
		s, err = d.reg.Summary(name, help, "")
		return s
	}
	d.met = daemonMetrics{
		queries:      counter("tgd_queries_total", "queries accepted"),
		tasks:        counter("tgd_tasks_total", "tasks enqueued"),
		claims:       counter("tgd_claims_total", "leases granted"),
		completed:    counter("tgd_completed_tasks_total", "tasks completed (exactly-once)"),
		duplicates:   counter("tgd_duplicate_completions_total", "late/duplicate completions acknowledged but not counted"),
		nacks:        counter("tgd_nacks_total", "tasks NACKed by workers"),
		retries:      counter("tgd_retries_total", "NACK retries granted against the per-query budget"),
		expired:      counter("tgd_lease_expired_total", "leases expired and repaired"),
		done:         counter("tgd_queries_done_total", "queries fully completed"),
		failed:       counter("tgd_queries_failed_total", "queries failed (retry budget exhausted)"),
		missed:       counter("tgd_deadline_miss_total", "tasks completed after their TF-EDFQ deadline"),
		ready:        gauge("tgd_ready_tasks", "tasks ready to claim"),
		delayed:      gauge("tgd_delayed_tasks", "tasks waiting out retry backoff"),
		leased:       gauge("tgd_leased_tasks", "tasks under an outstanding lease"),
		inflight:     gauge("tgd_inflight_queries", "queries not yet fully settled"),
		claimWaitMs:  summary("tgd_claim_wait_ms", "long-poll park time per granted claim"),
		turnaroundMs: summary("tgd_task_turnaround_ms", "task completion time minus query arrival"),
	}
	return err
}

// nowMs reads the daemon clock.
func (d *Daemon) nowMs() float64 { return d.cfg.NowMs() }

// Snapshot captures the live queue state and cumulative accounting.
func (d *Daemon) Snapshot() Snapshot { return d.table.Snapshot(d.nowMs()) }

// Mux returns the daemon's full HTTP surface:
//
//	POST /v1/enqueue   submit a deadline-stamped query
//	POST /v1/claim     long-poll claim of the earliest-deadline task
//	POST /v1/complete  settle a leased task (exactly-once)
//	POST /v1/nack      return a leased task for deadline-aware retry
//	GET  /v1/stats     accounting snapshot (JSON)
//	GET  /debug/queues queue-state snapshot (JSON; same body as stats)
//	GET  /metrics      Prometheus exposition of the tgd_* families
//	GET  /healthz      liveness
func (d *Daemon) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/enqueue", d.handleEnqueue)
	mux.HandleFunc("POST /v1/claim", d.handleClaim)
	mux.HandleFunc("POST /v1/complete", d.handleComplete)
	mux.HandleFunc("POST /v1/nack", d.handleNack)
	mux.HandleFunc("GET /v1/stats", d.handleStats)
	mux.HandleFunc("GET /debug/queues", d.handleStats)
	mux.Handle("GET /metrics", obs.MetricsHandler(d.reg))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	return mux
}

// writeJSON writes a 2xx JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr writes the uniform error body.
func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, ErrorBody{Error: err.Error()})
}

// handleEnqueue admits one query: validate, stamp the deadline (producer
// or estimator), journal, apply, wake claimers.
func (d *Daemon) handleEnqueue(w http.ResponseWriter, r *http.Request) {
	var req EnqueueRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := req.validate(d.cfg.MaxFanout); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	now := d.nowMs()
	deadline := req.DeadlineMs
	if deadline == 0 {
		if d.cfg.Deadliner == nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("tgd: daemon has no deadline estimator; stamp deadline_ms"))
			return
		}
		budget, err := d.cfg.Deadliner.Budget(req.Class, req.Fanout)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if math.IsInf(budget, 0) || math.IsNaN(budget) {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("tgd: estimator produced non-finite budget %v (deadline-blind policy?)", budget))
			return
		}
		deadline = now + budget
	}
	// Credit-gated admission: the query holds one credit until it
	// settles; an exhausted gate pushes back with 429 instead of queueing
	// work past the deadline horizon.
	if d.ctl != nil {
		if !d.cfg.Control.Gate().TryAcquire() {
			d.ctl.rejected.Inc()
			writeErr(w, http.StatusTooManyRequests, fmt.Errorf("tgd: in-flight credit limit reached; retry later"))
			return
		}
	}
	id := d.table.NextQueryID()
	qr := &QueryRecord{
		ID:         id,
		Class:      req.Class,
		Fanout:     req.Fanout,
		ArrivalMs:  now,
		DeadlineMs: deadline,
		Payloads:   req.Payloads,
	}
	// Write-ahead: the enqueue is durable before it is claimable.
	if err := d.store.Append(Record{Op: OpEnqueue, Query: qr, AtMs: now}); err != nil {
		d.settleCredit()
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if err := d.table.ApplyEnqueue(qr); err != nil {
		d.settleCredit()
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	d.met.queries.Inc()
	d.met.tasks.Add(uint64(req.Fanout))
	writeJSON(w, http.StatusOK, EnqueueResponse{
		QueryID:    id,
		Tasks:      req.Fanout,
		DeadlineMs: deadline,
		BudgetMs:   deadline - now,
		NowMs:      now,
	})
}

// handleClaim grants the earliest-deadline ready task, parking up to
// wait_ms when the queue is empty. An empty wait returns 204.
func (d *Daemon) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req ClaimRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := req.validate(d.cfg.MaxWaitMs, d.cfg.MaxLeaseMs); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	leaseMs := req.LeaseMs
	if leaseMs == 0 {
		leaseMs = d.cfg.DefaultLeaseMs
	}
	parkedSince := time.Now()
	parkDeadline := parkedSince.Add(time.Duration(req.WaitMs * float64(time.Millisecond)))
	for {
		// Arm the wake channel before the claim attempt so an enqueue
		// arriving between "queue empty" and "park" is never missed.
		ch := d.table.waitChan()
		if lease := d.table.Claim(d.nowMs(), leaseMs, req.Worker); lease != nil {
			d.met.claims.Inc()
			_ = d.met.claimWaitMs.Observe(float64(time.Since(parkedSince)) / float64(time.Millisecond))
			writeJSON(w, http.StatusOK, lease)
			return
		}
		remaining := time.Until(parkDeadline)
		if remaining <= 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		timer := time.NewTimer(remaining)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
}

// handleComplete settles a completion with exactly-once accounting.
func (d *Daemon) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	now := d.nowMs()
	out, err := d.table.Complete(req.QueryID, req.TaskIndex, req.LeaseID, now, d.store.Append)
	switch {
	case err != nil:
		writeErr(w, errStatus(err), err)
		return
	case out.Stale:
		writeErr(w, http.StatusConflict, fmt.Errorf("tgd: lease %d for query %d task %d superseded", req.LeaseID, req.QueryID, req.TaskIndex))
		return
	case out.Duplicate:
		d.met.duplicates.Inc()
		writeJSON(w, http.StatusOK, CompleteResponse{Duplicate: true, QueryFailed: out.QueryFailed, NowMs: now})
		return
	}
	d.met.completed.Inc()
	_ = d.met.turnaroundMs.Observe(now - out.ArrivalMs)
	if out.Missed {
		d.met.missed.Inc()
	}
	if out.QueryDone {
		d.met.done.Inc()
		d.settleCredit()
	}
	writeJSON(w, http.StatusOK, CompleteResponse{QueryDone: out.QueryDone, Missed: out.Missed, NowMs: now})
}

// handleNack settles a NACK: requeue with deadline-aware backoff while
// the retry budget lasts, fail the query once it is spent.
func (d *Daemon) handleNack(w http.ResponseWriter, r *http.Request) {
	var req NackRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	now := d.nowMs()
	out, err := d.table.Nack(req.QueryID, req.TaskIndex, req.LeaseID, now, d.store.Append)
	switch {
	case err != nil:
		writeErr(w, errStatus(err), err)
		return
	case out.Stale:
		writeErr(w, http.StatusConflict, fmt.Errorf("tgd: lease %d for query %d task %d superseded", req.LeaseID, req.QueryID, req.TaskIndex))
		return
	case out.Duplicate:
		d.met.duplicates.Inc()
		writeJSON(w, http.StatusOK, NackResponse{NowMs: now})
		return
	}
	d.met.nacks.Inc()
	if out.Failed {
		d.met.failed.Inc()
		d.settleCredit()
		writeJSON(w, http.StatusOK, NackResponse{Failed: true, NowMs: now})
		return
	}
	d.met.retries.Inc()
	writeJSON(w, http.StatusOK, NackResponse{Requeued: true, RetryAtMs: out.RetryAtMs, NowMs: now})
}

// errStatus maps a table error to its HTTP status: caller-fault lookups
// are 404s, anything else (journal append failures) is a 500.
func errStatus(err error) int {
	if errors.Is(err, ErrUnknownTask) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// handleStats serves the accounting snapshot and refreshes the depth
// gauges so /metrics scrapes stay current even without traffic.
func (d *Daemon) handleStats(w http.ResponseWriter, _ *http.Request) {
	s := d.Snapshot()
	d.met.ready.Set(float64(s.Ready))
	d.met.delayed.Set(float64(s.Delayed))
	d.met.leased.Set(float64(s.Leased))
	d.met.inflight.Set(float64(s.InFlight))
	writeJSON(w, http.StatusOK, s)
}
