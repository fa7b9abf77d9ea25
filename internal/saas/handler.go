package saas

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"tailguard/internal/core"
	"tailguard/internal/fault"
	"tailguard/internal/metrics"
	"tailguard/internal/obs"
	"tailguard/internal/policy"
	"tailguard/internal/workload"
)

// Query is one SaS query: a set of record-retrieval tasks fanned out to
// distinct edge nodes. Times are Unix seconds of the store span.
type Query struct {
	ID    int64
	Class int
	Nodes []int
	// FromTs/ToTs give each task's retrieval window, parallel to Nodes.
	FromTs []int64
	ToTs   []int64
}

func (q *Query) validate(totalNodes int) error {
	if len(q.Nodes) == 0 {
		return fmt.Errorf("saas: query %d has no tasks", q.ID)
	}
	if len(q.FromTs) != len(q.Nodes) || len(q.ToTs) != len(q.Nodes) {
		return fmt.Errorf("saas: query %d window count mismatch", q.ID)
	}
	seen := make(map[int]bool, len(q.Nodes))
	for i, n := range q.Nodes {
		if n < 0 || n >= totalNodes {
			return fmt.Errorf("saas: query %d targets node %d outside [0, %d)", q.ID, n, totalNodes)
		}
		if seen[n] {
			return fmt.Errorf("saas: query %d targets node %d twice", q.ID, n)
		}
		seen[n] = true
		if q.ToTs[i] < q.FromTs[i] {
			return fmt.Errorf("saas: query %d task %d window inverted", q.ID, i)
		}
	}
	return nil
}

// Aggregate is the merged result returned to the "user": summary
// statistics over all records retrieved by the query's tasks, computed by
// the aggregator module as task results arrive.
type Aggregate struct {
	Records  int
	MinTempC float64
	MaxTempC float64
	SumTempC float64
}

// NodeRef addresses one edge node, local or remote. EdgeNode.Ref produces
// refs for in-process nodes; cmd/tgedge prints a manifest of them for
// multi-process deployments.
type NodeRef struct {
	ID      int         `json:"id"`
	Cluster ClusterName `json:"cluster"`
	HTTPURL string      `json:"http_url"`
	TCPAddr string      `json:"tcp_addr"`
}

func (r NodeRef) validate(expectID int) error {
	if r.ID != expectID {
		return fmt.Errorf("saas: node ref %d at position %d (refs must be ID-ordered)", r.ID, expectID)
	}
	if _, err := NodeCluster(r.ID); err != nil {
		return err
	}
	if r.Cluster == "" || r.HTTPURL == "" || r.TCPAddr == "" {
		return fmt.Errorf("saas: node ref %d incomplete: %+v", r.ID, r)
	}
	return nil
}

// HandlerConfig configures the central query handler.
type HandlerConfig struct {
	Nodes     []NodeRef
	Spec      core.Spec
	Classes   *workload.ClassSet // SLOs in compressed ms
	Estimator *core.TailEstimator
	// Warmup: queries with ID below it are processed but not measured.
	Warmup int64
	// Client optionally overrides the HTTP client (keep-alive transport
	// by default). Only used with the HTTP transport.
	Client *http.Client
	// RequestTimeout bounds one task round trip (default 30s).
	RequestTimeout time.Duration
	// Transport selects the wire protocol (default HTTPTransport).
	Transport TransportKind
	// Admission, if non-nil, applies query admission control: Submit
	// returns ErrRejected while the windowed task deadline-miss ratio
	// holds the drop probability up (Section III.C, live path).
	Admission *core.AdmissionController
	// Obs, if non-nil, receives query/task lifecycle events stamped with
	// the handler's compressed wall clock. The sink must be safe for
	// concurrent use (e.g. obs.LockedRing).
	Obs *obs.Tracer
	// Faults, if non-nil, wraps the transport in a FaultTransport driven
	// by the handler clock, injecting the plan's transport delay and drop
	// windows on the wire path. The engine must be compiled for exactly
	// len(Nodes) servers.
	Faults *fault.Engine
}

// ErrRejected is returned by Submit when admission control rejects the
// query.
var ErrRejected = errors.New("saas: query rejected by admission control")

// Handler is the paper's query handler (Fig. 8): central task queuing (one
// queue set per edge node), policy-ordered dispatch over keep-alive
// HTTP/1.1, online CDF updating from merged task results, and result
// aggregation. Safe for concurrent Submit calls.
type Handler struct {
	cfg       HandlerConfig
	deadliner *core.Deadliner
	transport Transport
	start     time.Time
	obs       *obs.Tracer
	reg       *obs.Registry // always non-nil; serves /metrics
	met       *saasMetrics

	mu       sync.Mutex
	queues   []policy.Queue                  // guarded by mu (the slice is fixed; elements need mu)
	busy     []bool                          // guarded by mu
	busyMs   []float64                       // guarded by mu; accumulated node occupancy (compressed ms)
	states   map[int64]*saasQueryState       // guarded by mu
	byClass  *metrics.Breakdown[int]         // guarded by mu
	tpo      *metrics.Breakdown[ClusterName] // guarded by mu; post-queuing times per cluster
	tpr      *metrics.LatencyRecorder        // guarded by mu; task pre-dequeuing waits
	missed   int                             // guarded by mu
	tasks    int                             // guarded by mu
	rejected int                             // guarded by mu
	errs     []error                         // guarded by mu
	pending  sync.WaitGroup                  // one count per unserved task (see serveLoop)
}

type saasQueryState struct {
	arrivalMs float64
	maxRespMs float64
	remaining int
	class     int
	agg       Aggregate
	counted   bool
}

// NewHandler builds the handler and its per-node queues.
func NewHandler(cfg HandlerConfig) (*Handler, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("saas: handler needs edge nodes")
	}
	for i, ref := range cfg.Nodes {
		if err := ref.validate(i); err != nil {
			return nil, err
		}
	}
	if cfg.Classes == nil {
		return nil, fmt.Errorf("saas: handler needs a class set")
	}
	if cfg.Estimator == nil && cfg.Spec.Deadline != core.DeadlineNone {
		return nil, fmt.Errorf("saas: policy %s needs an estimator", cfg.Spec.Name)
	}
	if cfg.Faults != nil && cfg.Faults.Servers() != len(cfg.Nodes) {
		return nil, fmt.Errorf("saas: fault engine compiled for %d servers, handler has %d nodes",
			cfg.Faults.Servers(), len(cfg.Nodes))
	}
	dl, err := core.NewDeadliner(cfg.Spec, cfg.Estimator, cfg.Classes)
	if err != nil {
		return nil, err
	}
	h := &Handler{
		cfg:       cfg,
		deadliner: dl,
		start:     time.Now(),
		obs:       cfg.Obs,
		reg:       obs.NewRegistry(),
		queues:    make([]policy.Queue, len(cfg.Nodes)),
		busy:      make([]bool, len(cfg.Nodes)),
		busyMs:    make([]float64, len(cfg.Nodes)),
		states:    make(map[int64]*saasQueryState),
		byClass:   metrics.NewBreakdown[int](1024),
		tpo:       metrics.NewBreakdown[ClusterName](4096),
		tpr:       metrics.NewLatencyRecorder(4096),
	}
	met, err := newSaasMetrics(h.reg, cfg.Classes, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	h.met = met
	for i := range h.queues {
		q, err := policy.New(cfg.Spec.Queue)
		if err != nil {
			return nil, err
		}
		// Wrap each queue so every push/pop updates the node's live depth
		// gauge (the wrapper runs under h.mu, the gauge is atomic).
		gauge := met.depth[i]
		h.queues[i] = policy.Observed{Queue: q, OnDepth: func(d int) { gauge.Set(float64(d)) }}
	}
	timeout := cfg.RequestTimeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	switch cfg.Transport {
	case HTTPTransport, "":
		client := cfg.Client
		if client == nil {
			client = &http.Client{
				Transport: &http.Transport{
					MaxIdleConns:        2 * len(cfg.Nodes),
					MaxIdleConnsPerHost: 2,
					IdleConnTimeout:     90 * time.Second,
				},
			}
		}
		urls := make([]string, len(cfg.Nodes))
		for i, n := range cfg.Nodes {
			urls[i] = n.HTTPURL
		}
		h.transport = &httpClient{client: client, urls: urls, timeout: timeout}
	case TCPTransport:
		addrs := make([]string, len(cfg.Nodes))
		for i, n := range cfg.Nodes {
			addrs[i] = n.TCPAddr
		}
		h.transport = newTCPClient(addrs, timeout)
	default:
		return nil, fmt.Errorf("saas: unknown transport %q", cfg.Transport)
	}
	if cfg.Faults != nil {
		h.transport = &FaultTransport{Inner: h.transport, Engine: cfg.Faults, NowMs: h.nowMs}
	}
	return h, nil
}

// Close releases the handler's transport connections; call after Drain.
func (h *Handler) Close() error { return h.transport.Close() }

// nowMs returns milliseconds since the handler started (the testbed's
// compressed wall clock).
func (h *Handler) nowMs() float64 {
	return float64(time.Since(h.start)) / float64(time.Millisecond)
}

// fail records an asynchronous error (first 16 kept).
func (h *Handler) fail(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.errs) < 16 {
		h.errs = append(h.errs, err)
	}
}

// Submit enqueues one query's tasks. It returns immediately; Drain waits
// for completion.
func (h *Handler) Submit(q Query) error {
	if err := q.validate(len(h.cfg.Nodes)); err != nil {
		return err
	}
	now := h.nowMs()
	h.obs.Query(obs.KindArrival, now, q.ID, int32(q.Class), float64(len(q.Nodes)))
	if h.cfg.Admission != nil && !h.cfg.Admission.Admit(now) {
		h.obs.Query(obs.KindReject, now, q.ID, int32(q.Class), 0)
		h.met.rejected.Inc()
		h.mu.Lock()
		h.rejected++
		h.mu.Unlock()
		return ErrRejected
	}
	deadline, err := h.deadliner.DeadlineServers(now, q.Class, q.Nodes)
	if err != nil {
		return fmt.Errorf("saas: deadline for query %d: %w", q.ID, err)
	}
	h.obs.Query(obs.KindDeadline, now, q.ID, int32(q.Class), deadline)

	h.mu.Lock()
	if _, dup := h.states[q.ID]; dup {
		h.mu.Unlock()
		return fmt.Errorf("saas: duplicate query ID %d", q.ID)
	}
	h.pending.Add(len(q.Nodes))
	h.states[q.ID] = &saasQueryState{
		arrivalMs: now,
		remaining: len(q.Nodes),
		class:     q.Class,
		counted:   q.ID >= h.cfg.Warmup,
		agg:       Aggregate{MinTempC: 1e300, MaxTempC: -1e300},
	}
	for i, node := range q.Nodes {
		t := &policy.Task{
			QueryID:  q.ID,
			Index:    i,
			Server:   node,
			Class:    q.Class,
			Arrival:  now,
			Deadline: deadline,
			Enqueued: now,
		}
		t.Payload = TaskRequest{QueryID: q.ID, TaskID: i, FromTs: q.FromTs[i], ToTs: q.ToTs[i]}
		h.obs.TaskEvent(obs.KindEnqueue, now, q.ID, int32(i), int32(node), int32(q.Class), 0)
		if h.busy[node] {
			h.queues[node].Push(t)
		} else {
			h.busy[node] = true
			go h.serveLoop(node, t)
		}
	}
	h.mu.Unlock()
	return nil
}

// serveLoop serves tasks on one node until its queue drains. A task
// leaves pending only once the loop has taken the node's next task or
// marked the node idle, so Drain never returns with a node still busy.
func (h *Handler) serveLoop(node int, t *policy.Task) {
	for t != nil {
		h.serveOne(node, t)
		h.mu.Lock()
		next := h.queues[node].Pop()
		if next == nil {
			h.busy[node] = false
		}
		h.mu.Unlock()
		h.pending.Done()
		t = next
	}
}

// serveOne dispatches one task over HTTP and merges its result.
func (h *Handler) serveOne(node int, t *policy.Task) {
	dequeue := h.nowMs()
	t.Dequeued = dequeue
	missed := dequeue > t.Deadline
	h.obs.TaskEvent(obs.KindDispatch, dequeue, t.QueryID, int32(t.Index), int32(node), int32(t.Class), dequeue-t.Enqueued)
	h.met.tasks.Inc()
	if missed {
		h.met.missed.Inc()
	}
	// Metric recording must not fail the task; summaries only reject
	// negative or NaN values, which the monotone handler clock never
	// produces.
	_ = h.met.wait.Observe(dequeue - t.Enqueued)

	if h.cfg.Admission != nil {
		h.cfg.Admission.ObserveTask(missed, dequeue)
	}
	h.mu.Lock()
	h.tasks++
	if missed {
		h.missed++
	}
	st := h.states[t.QueryID]
	counted := st != nil && st.counted
	if counted {
		if err := h.tpr.Observe(dequeue - t.Enqueued); err != nil {
			h.errs = append(h.errs, err)
		}
	}
	h.mu.Unlock()

	req, ok := t.Payload.(TaskRequest)
	if !ok {
		h.fail(fmt.Errorf("saas: task %d/%d has no request payload", t.QueryID, t.Index))
		h.completeTask(node, t, h.nowMs(), dequeue, nil, counted)
		return
	}
	resp, err := h.transport.Send(node, req)
	receipt := h.nowMs()
	if err != nil {
		h.fail(fmt.Errorf("saas: task %d/%d on node %d: %w", t.QueryID, t.Index, node, err))
		h.completeTask(node, t, receipt, dequeue, nil, counted)
		return
	}
	h.completeTask(node, t, receipt, dequeue, resp, counted)
}

// httpClient is the keep-alive HTTP/1.1 transport of the paper's testbed.
type httpClient struct {
	client  *http.Client
	urls    []string
	timeout time.Duration
}

// Send implements Transport.
func (c *httpClient) Send(node int, req TaskRequest) (*TaskResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	httpReq, err := http.NewRequest(http.MethodPost, c.urls[node]+"/task", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	client := *c.client
	client.Timeout = c.timeout
	httpResp, err := client.Do(httpReq)
	if err != nil {
		return nil, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, httpResp.Body)
		_ = httpResp.Body.Close()
	}()
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", httpResp.Status)
	}
	var resp TaskResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Close implements Transport.
func (c *httpClient) Close() error {
	if t, ok := c.client.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	return nil
}

// completeTask updates all bookkeeping after a task round trip (resp may
// be nil on transport failure; the query still completes so Drain works).
func (h *Handler) completeTask(node int, t *policy.Task, receipt, dequeue float64, resp *TaskResponse, counted bool) {
	tpo := receipt - dequeue
	cluster := h.cfg.Nodes[node].Cluster
	h.obs.TaskEvent(obs.KindServiceEnd, receipt, t.QueryID, int32(t.Index), int32(node), int32(t.Class), tpo)
	_ = h.met.tpo[node].Observe(tpo)

	// Online updating process: post-queuing time into the node's CDF.
	if h.cfg.Estimator != nil {
		if err := h.cfg.Estimator.Observe(node, tpo); err != nil {
			h.fail(err)
		}
	}

	h.mu.Lock()
	h.busyMs[node] += tpo
	if counted {
		if err := h.tpo.Observe(cluster, tpo); err != nil {
			h.errs = append(h.errs, err)
		}
	}
	st := h.states[t.QueryID]
	if st == nil {
		h.mu.Unlock()
		h.fail(fmt.Errorf("saas: completion for unknown query %d", t.QueryID))
		return
	}
	if resp != nil {
		for _, rec := range resp.Records {
			st.agg.Records++
			st.agg.SumTempC += rec.TempC
			if rec.TempC < st.agg.MinTempC {
				st.agg.MinTempC = rec.TempC
			}
			if rec.TempC > st.agg.MaxTempC {
				st.agg.MaxTempC = rec.TempC
			}
		}
	}
	if receipt > st.maxRespMs {
		st.maxRespMs = receipt
	}
	st.remaining--
	done := st.remaining == 0
	var latency, endMs float64
	var class int
	if done {
		delete(h.states, t.QueryID)
		latency = st.maxRespMs - st.arrivalMs
		endMs = st.maxRespMs
		class = st.class
		if st.counted {
			if err := h.byClass.Observe(st.class, latency); err != nil {
				h.errs = append(h.errs, err)
			}
		}
	}
	h.mu.Unlock()
	if done {
		h.obs.Query(obs.KindQueryDone, endMs, t.QueryID, int32(class), latency)
		if class >= 0 && class < len(h.met.queries) {
			h.met.queries[class].Inc()
			_ = h.met.latency[class].Observe(latency)
		}
	}
}

// Drain blocks until every submitted query has completed and every node
// is idle: a /debug/queues read after Drain sees no node busy or queued.
func (h *Handler) Drain() { h.pending.Wait() }

// Stats is the handler's measured output, in compressed milliseconds.
type Stats struct {
	ByClass       map[int]*metrics.LatencyRecorder
	PerClusterTpo map[ClusterName]*metrics.LatencyRecorder
	TaskWait      *metrics.LatencyRecorder
	TaskMissRatio float64
	// Rejected counts queries refused by admission control.
	Rejected int
	// NodeBusyMs is per-node accumulated occupancy.
	NodeBusyMs []float64
	ElapsedMs  float64
	Errors     []error
}

// Snapshot returns the measurements collected so far. Call after Drain for
// final numbers.
func (h *Handler) Snapshot() *Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := &Stats{
		ByClass:       make(map[int]*metrics.LatencyRecorder),
		PerClusterTpo: make(map[ClusterName]*metrics.LatencyRecorder),
		TaskWait:      h.tpr,
		Rejected:      h.rejected,
		NodeBusyMs:    append([]float64(nil), h.busyMs...),
		ElapsedMs:     h.nowMs(),
		Errors:        append([]error(nil), h.errs...),
	}
	if h.tasks > 0 {
		s.TaskMissRatio = float64(h.missed) / float64(h.tasks)
	}
	h.byClass.Each(func(k int, r *metrics.LatencyRecorder) { s.ByClass[k] = r })
	h.tpo.Each(func(k ClusterName, r *metrics.LatencyRecorder) { s.PerClusterTpo[k] = r })
	return s
}
