// Package obs is TailGuard's observability subsystem, shared by the
// discrete-event simulator, the production scheduler embedding, and the
// live SaS testbed. It provides three planes:
//
//   - a query/task lifecycle tracer (Tracer): flat value-typed events for
//     arrival, deadline assignment, enqueue, dispatch, service start/end,
//     query completion, and admission rejection, recorded into a
//     fixed-capacity ring with optional per-query sampling and exportable
//     as Chrome trace_event JSON (chrometrace.go);
//   - deadline-miss attribution (attrib.go): per-query decomposition of
//     SLO violations into queueing delay vs. service time plus the
//     straggler task's identity, surfaced as slack histograms and a
//     miss-cause breakdown;
//   - a streaming metrics registry (registry.go): concurrent counters,
//     gauges, and log-bucket summaries with Prometheus text exposition
//     (prom.go), served live by the testbed handler.
//
// The nil-sink contract: every recording entry point (Tracer methods,
// Attributor.Observe) is safe to call on a nil receiver and performs no
// work — a nil *Tracer in a config means "tracing off" and costs one
// pointer compare per call site, with zero allocations, so instrumented
// hot paths keep their allocation-free guarantees (DESIGN.md §9, §10).
//
// Timestamps are supplied by the caller in the caller's clock domain: the
// simulator passes virtual milliseconds from the event clock, the testbed
// its compressed wall clock. This package never reads the wall clock
// itself (enforced by the obsclock row of tglint's forbidcall analyzer).
package obs

// Kind identifies one lifecycle event type.
type Kind uint8

// Lifecycle event kinds. The set mirrors Fig. 2 of the paper: a query
// arrives, gets a deadline (or is rejected), fans out into tasks that are
// enqueued, dispatched (dequeued for service), served, and merged; the
// slowest task completes the query.
const (
	// KindArrival marks a query arrival; Value is the fanout kf.
	KindArrival Kind = iota
	// KindDeadline marks deadline assignment; Value is the absolute task
	// queuing deadline tD in ms (math.Inf(1) for deadline-less policies).
	KindDeadline
	// KindReject marks an admission-control rejection.
	KindReject
	// KindEnqueue marks one task entering its server's queue.
	KindEnqueue
	// KindDispatch marks one task leaving its queue for service; Value is
	// its pre-dequeuing wait t_pr in ms.
	KindDispatch
	// KindServiceStart marks service (or the transport round trip)
	// beginning on the server.
	KindServiceStart
	// KindServiceEnd marks one task finishing service; Value is the
	// task's post-queuing time t_po in ms.
	KindServiceEnd
	// KindQueryDone marks the query's last task completing; Value is the
	// query latency in ms.
	KindQueryDone
	// KindQueueDepth samples one server queue's depth; Value is the
	// number of queued tasks after the triggering push or pop.
	KindQueueDepth
	// KindTaskLost marks one task copy destroyed by a fault (server
	// crash, transport drop) before finishing; Value is 1 when the loss
	// was absorbed (retried or covered by a hedge sibling), 0 when it
	// failed the query.
	KindTaskLost
	// KindHedge marks a hedge duplicate issued to Server after the
	// primary copy overstayed its queuing deadline; Value is the primary
	// copy's server index.
	KindHedge
	// KindControl marks one adaptive-control-plane tick decision
	// (internal/control): Value is the actuated admission threshold
	// scale, Task the credit limit, Server the number of fully active
	// servers, and Class the number still on the warm-up ramp. QueryID
	// is -1.
	KindControl

	numKinds = int(KindControl) + 1
)

// kindNames are the stable exposition names, indexed by Kind.
var kindNames = [numKinds]string{
	"arrival", "deadline", "reject", "enqueue", "dispatch",
	"service_start", "service_end", "query_done", "queue_depth",
	"task_lost", "hedge", "control",
}

// String returns the event kind's stable lowercase name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one lifecycle event. It is a flat value type so recording an
// event moves a few machine words and never allocates; fields that do not
// apply to a Kind are zero (Task and Server are -1 for query-level events).
type Event struct {
	// TimeMs is the event time in the emitting domain's clock
	// (virtual ms in the simulator, compressed wall ms in the testbed).
	TimeMs float64
	// Value carries the kind-specific measurement (see the Kind docs).
	Value float64
	// QueryID tags the query; -1 for events with no query association.
	QueryID int64
	// Seq is the record sequence number, assigned by the sink.
	Seq uint64
	// Server is the task server index, or -1.
	Server int32
	// Task is the task index within its query (0..kf-1), or -1.
	Task int32
	// Class is the query's service class.
	Class int32
	// Kind is the lifecycle event type.
	Kind Kind
}

// Sink receives recorded events. Record must not retain e beyond the
// call (events are value types; copying is fine). Sinks used from
// concurrent recorders (testbed, sched) must be safe for concurrent use;
// the simulator's single-threaded Ring is not.
type Sink interface {
	Record(e Event)
}

// TracerConfig configures a Tracer.
type TracerConfig struct {
	// Sink receives the events. Required.
	Sink Sink
	// SampleEvery records only queries whose ID is divisible by it
	// (task events inherit their query's fate). 0 or 1 records every
	// query. Events with QueryID < 0 are always recorded.
	SampleEvery int64
}

// Tracer is the recording facade handed to instrumented components. A nil
// *Tracer is the disabled state: every method no-ops, so call sites need
// no separate enabled flag and pay one nil compare when tracing is off.
type Tracer struct {
	sink  Sink
	every int64
}

// NewTracer builds a tracer. A nil sink yields a nil (disabled) tracer.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Sink == nil {
		return nil
	}
	every := cfg.SampleEvery
	if every < 1 {
		every = 1
	}
	return &Tracer{sink: cfg.Sink, every: every}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// SampledQuery reports whether events for the given query ID pass the
// sampling filter. Callers may use it to skip assembling per-task state
// for unsampled queries.
func (t *Tracer) SampledQuery(id int64) bool {
	if t == nil {
		return false
	}
	return t.every == 1 || (id >= 0 && id%t.every == 0)
}

// Emit records one event, applying the query sampling filter. Safe on a
// nil tracer (no-op).
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	if e.QueryID >= 0 && t.every != 1 && e.QueryID%t.every != 0 {
		return
	}
	t.sink.Record(e)
}

// Query emits a query-level event (Server and Task set to -1).
func (t *Tracer) Query(kind Kind, timeMs float64, queryID int64, class int32, value float64) {
	if t == nil {
		return
	}
	t.Emit(Event{TimeMs: timeMs, Kind: kind, QueryID: queryID, Class: class, Server: -1, Task: -1, Value: value})
}

// TaskEvent emits a task-level event.
func (t *Tracer) TaskEvent(kind Kind, timeMs float64, queryID int64, task, server, class int32, value float64) {
	if t == nil {
		return
	}
	t.Emit(Event{TimeMs: timeMs, Kind: kind, QueryID: queryID, Task: task, Server: server, Class: class, Value: value})
}

// QueueDepth emits a queue-depth sample for one server. Depth samples
// carry no query association and always pass the sampling filter.
func (t *Tracer) QueueDepth(timeMs float64, server int32, depth int) {
	if t == nil {
		return
	}
	t.Emit(Event{TimeMs: timeMs, Kind: KindQueueDepth, QueryID: -1, Task: -1, Server: server, Value: float64(depth)})
}
