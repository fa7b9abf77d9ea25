// Package cluster simulates the paper's query processing model (Fig. 2):
// a query arrival process feeding a query handler that spawns kf tasks per
// query, dispatches them to task-server queues managed by a pluggable
// queuing policy, and merges task results; the slowest task determines the
// query response time. It is the engine behind every simulation experiment
// in Section IV.
//
// The simulator is allocation-free in steady state: tasks and query
// states come from per-run freelists owned by an Arena, events carry
// their payloads through pre-bound sim.Handlers instead of closures, and
// an Arena reused across runs also recycles the event heap, queues, and
// result recorders. See DESIGN.md §9 for the pooling invariants.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"tailguard/internal/control"
	"tailguard/internal/core"
	"tailguard/internal/dist"
	"tailguard/internal/fault"
	"tailguard/internal/metrics"
	"tailguard/internal/obs"
	"tailguard/internal/policy"
	"tailguard/internal/sim"
	"tailguard/internal/workload"
)

// ClassFanout identifies one "query type" in the paper's sense: a service
// class and fanout pair. SLO compliance is verified per type.
type ClassFanout struct {
	Class  int
	Fanout int
}

// Config configures one simulation run.
type Config struct {
	// Servers is the cluster size N.
	Servers int
	// Spec selects the queuing policy (queue discipline + deadline rule).
	Spec core.Spec
	// ServiceTimes holds per-server task service-time distributions:
	// either one entry (homogeneous, used by all servers) or exactly
	// Servers entries.
	ServiceTimes []dist.Distribution
	// Generator produces the query stream (arrivals, classes, fanouts,
	// placements). Finite sources (trace replays) may end before Queries
	// queries; the run then simply drains. Sources implementing
	// ServerRecycler get their placement slices back once a query's
	// statistics are recorded.
	Generator workload.QuerySource
	// Classes defines the service classes and their SLOs.
	Classes *workload.ClassSet
	// Deadliner computes task queuing deadlines for the chosen Spec.
	Deadliner *core.Deadliner
	// Queries is the total number of queries to generate.
	Queries int
	// Warmup queries are simulated but excluded from statistics.
	Warmup int
	// Seed drives service-time sampling.
	Seed int64
	// Admission, if non-nil, applies query admission control.
	Admission *core.AdmissionController
	// Estimator, if non-nil, receives online post-queuing-time
	// observations (the paper's online updating process). Must be an
	// updatable (non-static) estimator.
	Estimator *core.TailEstimator
	// HeterogeneousDeadlines computes deadlines from each query's actual
	// server set (Eqn. 1 product form) instead of the homogeneous fanout
	// shortcut. Needed when ServiceTimes differ across servers.
	HeterogeneousDeadlines bool
	// OnQueryDone, if non-nil, is invoked when a query completes (warmup
	// or not) and may return follow-up queries to inject with arrival set
	// to the completion time. The request-level extension chains a
	// request's sequential queries through it. Injected queries bypass
	// admission control (the request was already admitted). The hook must
	// not retain q.Servers past its return: the slice may be recycled.
	OnQueryDone func(q workload.Query, latencyMs, now float64) []workload.Query
	// Queuing selects where task queuing takes place (the paper's
	// footnote 3): centrally at the query handler (default) or at the
	// task servers. The difference only matters with a DispatchDelay.
	Queuing QueuingMode
	// DispatchDelay, if non-nil, models the per-task dispatch network
	// delay. Under central queuing it is incurred after dequeue (part of
	// the post-queuing time t_po and of server occupancy); under
	// per-server queuing it is incurred before enqueue (part of the
	// pre-dequeuing time t_pr).
	DispatchDelay dist.Distribution
	// Failures injects server outages: during [Start, End) the server
	// finishes its in-flight task but starts no new ones; its queue keeps
	// accumulating. This models the paper's "hardware/software failures"
	// motivation for admission control.
	Failures []Failure
	// Faults, if non-nil, injects the compiled fault plan (service
	// slowdowns and stalls stretch occupancy, crashes lose the queue and
	// the in-flight task, transport faults delay or drop the dispatch
	// leg). The engine must be compiled for exactly Servers servers. A
	// nil engine leaves the run bit-identical to a fault-free build.
	Faults *fault.Engine
	// Resilience selects the mitigations applied against faults (hedging,
	// lost-task retries, degraded admission). The zero value disables
	// them all and preserves bit-identical unmitigated behavior.
	Resilience fault.Resilience
	// TimelineBucketMs, when positive, buckets post-warmup query
	// latencies and admission decisions by arrival time, enabling
	// transient analysis (e.g. behavior across a failure window).
	TimelineBucketMs float64
	// Shards, when > 1, runs the simulation on the sharded parallel core:
	// servers are striped across Shards discrete-event shards that advance
	// under a conservative time-window protocol, producing a Result
	// bit-identical to the sequential engine (see DESIGN.md §13). The
	// sharded core supports the data path only — admission control, online
	// estimation, fault resilience, tracing, completion hooks and
	// central-queuing dispatch delays are rejected with clear errors
	// (validateSharded). 0 and 1 select the sequential engine.
	Shards int
	// ShardWindowMs overrides the conservative window width (ms) of the
	// sharded core; 0 picks a default. Any positive width yields the same
	// Result — the width trades barrier frequency against delivery batch
	// size, nothing else.
	ShardWindowMs float64
	// Arena, if non-nil, supplies the run's reusable resources (event
	// heap, freelists, queues, recorders) so repeated runs stop
	// allocating. An Arena serves one run at a time.
	Arena *Arena
	// Control, if non-nil, attaches the adaptive control plane
	// (internal/control). The runner ticks it every Control TickMs on the
	// simulated clock, feeding back the windowed query miss ratio; the
	// controller's loops actuate the admission threshold scale (when
	// Admission is set), the per-class token buckets (arrivals they shed
	// count as Throttled), and — when a credit gate is attached — bound
	// the number of in-flight generator queries, deferring the arrival
	// chain while credits are exhausted (backpressure on the source).
	// Autoscaling acts through the controller's ActiveSet, which the
	// scenario wires into the generator's placement; the runner only
	// drives the ticks. Sequential engine only, and mutually exclusive
	// with Resilience.DegradedAdmission (both actuate the admission
	// threshold scale).
	Control *control.Controller
	// Obs, if non-nil, receives query/task lifecycle events in virtual
	// milliseconds. A nil tracer costs one pointer compare per event site
	// and keeps the run allocation-free (the nil-sink contract).
	Obs *obs.Tracer
	// Attribution, if non-nil, accumulates per-query deadline-miss
	// attribution (latency vs. SLO, straggler identity and decomposition)
	// for post-warmup queries.
	Attribution *obs.Attributor
	// EarlyStop, if non-nil, ends the run as soon as every one of its SLO
	// checks is certain to fail, marking the Result Stopped. The max-load
	// search sets it on its probes; nil runs every query.
	EarlyStop *EarlyStop
}

// EarlyStop lets a run stop once its SLO verdict can only be a failure.
// Each check is one verdict — one SLO row of a max-load grid whose rows
// read one shared probe — and the run stops when all of them have
// failed. A check fails once some (class, fanout) type has had
// Quota[class*Stride+fanout] post-warmup latencies above its class's SLO.
// The setter computes each quota with metrics.ExceedQuota from the type's
// final post-warmup count, so it must know that count before the run: a
// source whose query mix is fixed in advance, and no admission control,
// faults or hook that change which queries complete. Then a check that
// fails here fails in Result.MeetsSLOs, and a run whose every check
// would pass can never stop.
type EarlyStop struct {
	// Stride is the fanout dimension of every Quota table: the largest
	// fanout the source can draw, plus one.
	Stride int
	Checks []SLOCheck
}

// SLOCheck is one verdict an EarlyStop watches.
type SLOCheck struct {
	// SLOMs is each class's latency bound, indexed by class ID.
	SLOMs []float64
	// Quota is indexed by class*Stride+fanout: the number of that type's
	// latencies above SLOMs[class] that fails the check. 0 marks a type
	// the check ignores (too few samples for MeetsSLOs to read it).
	Quota []int32
}

// validate checks the tables' shapes against the class count.
func (es *EarlyStop) validate(classes int) error {
	if es.Stride < 1 || len(es.Checks) == 0 {
		return fmt.Errorf("cluster: early stop needs a positive stride and at least one check")
	}
	for i, c := range es.Checks {
		if len(c.SLOMs) != classes || len(c.Quota) != classes*es.Stride {
			return fmt.Errorf("cluster: early-stop check %d has %d SLOs and %d quotas, want %d and %d",
				i, len(c.SLOMs), len(c.Quota), classes, classes*es.Stride)
		}
	}
	return nil
}

// Failure is one server outage window.
type Failure struct {
	Server int
	Start  float64 // ms
	End    float64 // ms, > Start
}

// QueuingMode selects the task queuing location.
type QueuingMode int

// Queuing modes.
const (
	// CentralQueuing keeps all task queues at the query handler.
	CentralQueuing QueuingMode = iota
	// PerServerQueuing dispatches tasks to per-server queues first.
	PerServerQueuing
)

// ServerRecycler is implemented by query sources that want their
// placement slices back after the simulator is done with a query.
// workload.Generator implements it to reuse its Servers allocations.
type ServerRecycler interface {
	Recycle(servers []int)
}

// arrivalRebaser is implemented by query sources whose arrival clock can
// jump forward when the control plane's credit gate unblocks — the time
// the source spent blocked must not be replayed as a burst of stale
// arrivals. workload.Generator implements it via RebaseTo.
type arrivalRebaser interface {
	RebaseTo(t float64)
}

func (c *Config) validate() error {
	if c.Servers < 1 {
		return fmt.Errorf("cluster: need >= 1 server, got %d", c.Servers)
	}
	switch len(c.ServiceTimes) {
	case 1, c.Servers:
	default:
		return fmt.Errorf("cluster: ServiceTimes must have 1 or %d entries, got %d", c.Servers, len(c.ServiceTimes))
	}
	for i, d := range c.ServiceTimes {
		if d == nil {
			return fmt.Errorf("cluster: nil service-time distribution at %d", i)
		}
	}
	if c.Generator == nil {
		return fmt.Errorf("cluster: generator is required")
	}
	if c.Classes == nil {
		return fmt.Errorf("cluster: class set is required")
	}
	if c.Deadliner == nil {
		return fmt.Errorf("cluster: deadliner is required")
	}
	if c.Queries < 1 {
		return fmt.Errorf("cluster: need >= 1 query, got %d", c.Queries)
	}
	if c.Warmup < 0 || c.Warmup >= c.Queries {
		return fmt.Errorf("cluster: warmup %d outside [0, %d)", c.Warmup, c.Queries)
	}
	for i, f := range c.Failures {
		if f.Server < 0 || f.Server >= c.Servers {
			return fmt.Errorf("cluster: failure %d targets server %d outside [0, %d)", i, f.Server, c.Servers)
		}
		if f.Start < 0 || f.End <= f.Start {
			return fmt.Errorf("cluster: failure %d window [%v, %v) invalid", i, f.Start, f.End)
		}
	}
	if c.TimelineBucketMs < 0 {
		return fmt.Errorf("cluster: timeline bucket %v negative", c.TimelineBucketMs)
	}
	if c.Faults != nil && c.Faults.Servers() != c.Servers {
		return fmt.Errorf("cluster: fault engine compiled for %d servers, cluster has %d", c.Faults.Servers(), c.Servers)
	}
	if err := c.Resilience.Validate(); err != nil {
		return err
	}
	if c.Resilience.DegradedAdmission && c.Admission == nil {
		return fmt.Errorf("cluster: degraded admission requires an admission controller")
	}
	if c.Control != nil && c.Resilience.DegradedAdmission {
		return fmt.Errorf("cluster: the control plane and degraded admission both actuate the admission threshold scale; enable one")
	}
	if c.Shards < 0 {
		return fmt.Errorf("cluster: shards %d negative", c.Shards)
	}
	if c.Shards > c.Servers {
		return fmt.Errorf("cluster: %d shards exceed %d servers", c.Shards, c.Servers)
	}
	if c.ShardWindowMs < 0 {
		return fmt.Errorf("cluster: shard window %v negative", c.ShardWindowMs)
	}
	if c.EarlyStop != nil {
		if err := c.EarlyStop.validate(c.Classes.Len()); err != nil {
			return err
		}
	}
	if c.Shards > 1 {
		if err := c.validateSharded(); err != nil {
			return err
		}
	}
	return nil
}

// validateSharded rejects features the sharded core does not carry. Each
// restriction exists to preserve bit-identity with the sequential engine:
// these features either consume the cluster rng outside the arrival-order
// prefix the pump replays (central-queuing dispatch delay, hedging,
// retries) or observe events in global completion order on the hot path
// (admission feedback, online estimation, tracing, completion hooks),
// which no per-shard schedule can reproduce without serializing.
func (c *Config) validateSharded() error {
	if c.Admission != nil {
		return fmt.Errorf("cluster: sharded runs do not support admission control (its feedback loop observes tasks in global dequeue order)")
	}
	if c.Estimator != nil {
		return fmt.Errorf("cluster: sharded runs do not support online estimation (it observes completions in global order)")
	}
	if c.OnQueryDone != nil {
		return fmt.Errorf("cluster: sharded runs do not support completion hooks (injected arrivals would re-enter mid-window)")
	}
	if c.Resilience != (fault.Resilience{}) {
		return fmt.Errorf("cluster: sharded runs do not support fault resilience (hedges and retries sample the rng at completion time)")
	}
	if c.Obs != nil {
		return fmt.Errorf("cluster: sharded runs do not support lifecycle tracing; attribution is supported")
	}
	if c.Control != nil {
		return fmt.Errorf("cluster: sharded runs do not support the adaptive control plane (its feedback loop observes completions in global order)")
	}
	if c.DispatchDelay != nil && c.Queuing != PerServerQueuing {
		return fmt.Errorf("cluster: sharded runs support a dispatch delay only under per-server queuing (central queuing samples it at dequeue time)")
	}
	if c.EarlyStop != nil {
		return fmt.Errorf("cluster: sharded runs do not support early stopping (shards record completions out of global order)")
	}
	return nil
}

// Result aggregates one run's measurements.
type Result struct {
	Spec      string
	Queries   int // generated by the source
	Injected  int // injected by the OnQueryDone hook
	Admitted  int
	Rejected  int
	Completed int // admitted queries that finished
	// Failed counts admitted queries that could not finish because a
	// task copy was lost to a fault and neither a hedge sibling nor the
	// retry budget could absorb the loss.
	Failed int
	// LostTasks counts task copies destroyed by faults (crashes,
	// transport drops); Retries counts re-dispatches of lost copies.
	LostTasks int
	Retries   int
	// HedgesIssued counts duplicate tasks spawned by the hedging policy;
	// HedgeWins counts races the duplicate won.
	HedgesIssued int
	HedgeWins    int
	// CreditDeferred counts generator arrivals the control plane's credit
	// gate held back (backpressure applied to the source); Throttled
	// counts arrivals its per-class token buckets shed; ControlTicks
	// counts controller decisions applied during the run.
	CreditDeferred int
	Throttled      int
	ControlTicks   int
	// Stopped marks a run that Config.EarlyStop ended before its last
	// query: every check failed. Its counters and recorders cover only
	// the queries simulated up to the stop.
	Stopped bool

	// Duration is the simulated time from t=0 to the last completion (ms).
	Duration float64
	// Utilization is total busy time / (Servers * Duration): the achieved
	// (accepted) load.
	Utilization float64
	// OfferedLoad is the expected demand of all generated queries
	// (admitted or not) relative to capacity.
	OfferedLoad float64
	// TaskMissRatio is the fraction of tasks dequeued after their queuing
	// deadline (always 0 for policies without deadlines).
	TaskMissRatio float64

	// Overall holds query latencies across all types; ByClass, ByFanout
	// and ByType break them down (post-warmup only).
	Overall  *metrics.LatencyRecorder
	ByClass  *metrics.Breakdown[int]
	ByFanout *metrics.Breakdown[int]
	ByType   *metrics.Breakdown[ClassFanout]
	// TaskWait records task pre-dequeuing times t_pr (post-warmup).
	TaskWait *metrics.LatencyRecorder
	// Timeline buckets post-warmup query latencies by arrival time
	// (bucket = arrival / TimelineBucketMs); nil unless enabled.
	Timeline *metrics.Breakdown[int]
	// TimelineAdmitted/TimelineRejected count admission decisions per
	// arrival bucket; nil unless the timeline is enabled.
	TimelineAdmitted map[int]int
	TimelineRejected map[int]int
}

// reset clears counters and recorders for reuse, keeping their capacity.
func (res *Result) reset() {
	res.Spec = ""
	res.Queries, res.Injected = 0, 0
	res.Admitted, res.Rejected, res.Completed = 0, 0, 0
	res.Failed, res.LostTasks, res.Retries = 0, 0, 0
	res.HedgesIssued, res.HedgeWins = 0, 0
	res.CreditDeferred, res.Throttled, res.ControlTicks = 0, 0, 0
	res.Stopped = false
	res.Duration, res.Utilization = 0, 0
	res.OfferedLoad, res.TaskMissRatio = 0, 0
	res.Overall.Reset()
	res.TaskWait.Reset()
	res.ByClass.Reset()
	res.ByFanout.Reset()
	res.ByType.Reset()
	if res.Timeline != nil {
		res.Timeline.Reset()
	}
	for k := range res.TimelineAdmitted {
		delete(res.TimelineAdmitted, k)
	}
	for k := range res.TimelineRejected {
		delete(res.TimelineRejected, k)
	}
}

// queryState tracks one in-flight query.
type queryState struct {
	query     workload.Query
	maxFinish float64 // latest task completion time so far
	// Straggler tracking for miss attribution: identity and time
	// decomposition of the task whose completion set maxFinish.
	stragWait float64 // straggler pre-dequeuing wait t_pr
	stragSvc  float64 // straggler post-queuing time t_po
	stragTask int32
	stragSrv  int32
	remaining int32
	retries   int32 // lost-task retries spent (fault resilience)
	lostSrv   int32 // server of the first unabsorbed task loss, or -1
	counted   bool  // include in statistics (past warmup)
	injected  bool  // created by the OnQueryDone hook
	failed    bool  // a task copy was lost and not absorbed
	active    bool  // slot occupancy marker (dense store)
}

// maxDenseGap bounds how far past the current ring window a query ID may
// land and still grow the ring; larger jumps (arbitrary trace IDs) go to
// the overflow map so a sparse ID space cannot exhaust memory.
const maxDenseGap = 4096

// minRingCap is the ring's initial power-of-two capacity.
const minRingCap = 1024

// stateStore holds the in-flight query states. IDs are near-contiguous
// and (near-)monotone for every built-in source (the generator counts
// from zero; request workloads use req*m+idx), so states live in a
// sliding ring window [base, base+cap): claiming and releasing a state
// is index arithmetic with no map hashing and no per-query allocation,
// and the window advances as the lowest in-flight IDs release. Memory is
// therefore bounded by the number of queries simultaneously in flight,
// not by the run length — a 10M-query run with a few thousand in flight
// keeps a few-thousand-slot ring, where a zero-based dense slice would
// grow to 10M slots. A released slot is zeroed so no stale query data
// survives into its next claimant; IDs outside the window (sparse trace
// IDs, stragglers below base) use the overflow map exactly as before.
type stateStore struct {
	ring     []queryState // power-of-two capacity (or empty)
	start    int          // ring index of base
	base     int64        // lowest ID the ring can currently hold
	used     int64        // one past the highest ID claimed in the window
	overflow map[int64]*queryState
	free     []*queryState
}

// slot maps an in-window ID to its ring index.
func (s *stateStore) slot(id int64) int {
	return (s.start + int(id-s.base)) & (len(s.ring) - 1)
}

// grow rehomes the window into a ring that can hold offset off from base.
func (s *stateStore) grow(off int64) {
	newCap := minRingCap
	for newCap < 2*len(s.ring) {
		newCap <<= 1
	}
	for int64(newCap) <= off {
		newCap <<= 1
	}
	ring := make([]queryState, newCap)
	if len(s.ring) > 0 {
		mask := len(s.ring) - 1
		for i := 0; int64(i) < s.used-s.base; i++ {
			ring[i] = s.ring[(s.start+i)&mask]
		}
	}
	s.ring = ring
	s.start = 0
}

// claim reserves the state slot for id; ok is false if id is in flight.
// Claiming may grow the ring: callers must not hold a *queryState from an
// earlier claim across a claim call.
//
//tg:hotpath
func (s *stateStore) claim(id int64) (st *queryState, ok bool) {
	if id >= s.base {
		off := id - s.base
		if off >= int64(len(s.ring)) && off < int64(len(s.ring))+maxDenseGap {
			s.grow(off) //tg:cold ring growth, amortized across the window
			off = id - s.base
		}
		if off < int64(len(s.ring)) {
			st = &s.ring[s.slot(id)]
			if st.active {
				return nil, false
			}
			if s.overflow != nil {
				if _, dup := s.overflow[id]; dup {
					return nil, false
				}
			}
			st.active = true
			if id >= s.used {
				s.used = id + 1
			}
			return st, true
		}
	}
	if s.overflow == nil {
		s.overflow = make(map[int64]*queryState) //tg:cold lazy init, first sparse ID only
	}
	if _, dup := s.overflow[id]; dup {
		return nil, false
	}
	if n := len(s.free); n > 0 {
		st = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		st = new(queryState) //tg:cold freelist warm-up, reused ever after
	}
	st.active = true
	s.overflow[id] = st
	return st, true
}

// get returns the in-flight state for id, or nil.
//
//tg:hotpath
func (s *stateStore) get(id int64) *queryState {
	if id >= s.base && id < s.base+int64(len(s.ring)) {
		if st := &s.ring[s.slot(id)]; st.active {
			return st
		}
	}
	return s.overflow[id]
}

// release zeroes id's state and returns its slot for reuse, sliding the
// window forward when the lowest in-flight ID goes.
//
//tg:hotpath
func (s *stateStore) release(id int64) {
	if id >= s.base && id < s.base+int64(len(s.ring)) {
		i := s.slot(id)
		if s.ring[i].active {
			s.ring[i] = queryState{}
			if id == s.base {
				s.advance()
			}
			return
		}
	}
	if st, ok := s.overflow[id]; ok {
		delete(s.overflow, id)
		*st = queryState{}
		s.free = append(s.free, st)
	}
}

// advance slides base past released (and never-claimed) low slots.
//
//tg:hotpath
func (s *stateStore) advance() {
	mask := len(s.ring) - 1
	for s.base < s.used && !s.ring[s.start].active {
		s.start = (s.start + 1) & mask
		s.base++
	}
	if s.base == s.used {
		// Empty window: rehome to the ring's front for locality.
		s.start = 0
	}
}

// reset clears any states left over from an aborted run, keeping
// capacity, and rewinds the window to zero so the next run's claims land
// in the ring again. visit, if non-nil, sees each leftover state first,
// in ID order within the ring and then in sorted-ID order in the overflow.
func (s *stateStore) reset(visit func(*queryState)) {
	if s.used > s.base {
		mask := len(s.ring) - 1
		for i := 0; int64(i) < s.used-s.base; i++ {
			j := (s.start + i) & mask
			if s.ring[j].active {
				if visit != nil {
					visit(&s.ring[j])
				}
				s.ring[j] = queryState{}
			}
		}
	}
	s.start, s.base, s.used = 0, 0, 0
	// Drain the overflow in sorted-ID order so the freelist — and with it
	// the pointer each later claim hands out — is identical run to run.
	ids := make([]int64, 0, len(s.overflow))
	for id := range s.overflow {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st := s.overflow[id]
		delete(s.overflow, id)
		if visit != nil {
			visit(st)
		}
		*st = queryState{}
		s.free = append(s.free, st)
	}
}

// Arena owns the reusable resources of a simulation run: the event
// engine, the task and query-box freelists, the query-state store, the
// per-server queue set and occupancy slices, and a spare Result. Reusing
// one arena across runs (Config.Arena) makes steady-state simulation
// effectively allocation-free; a nil Config.Arena gets a private arena,
// reproducing the old allocate-per-run behavior. An arena serves one run
// at a time and is not safe for concurrent use.
type Arena struct {
	engine    *sim.Engine
	tasks     policy.TaskPool
	states    stateStore
	queues    []policy.Queue
	queueKind policy.Kind
	qboxes    []*workload.Query
	busy      []bool
	paused    []bool
	busyAcc   []float64
	spare     *Result
	// Fault-run state, sized only when a run injects faults or hedges:
	// crash markers, the per-server in-flight task (to detect completions
	// of crash-aborted tasks), and the hedge-skimming queue wrappers.
	crashed  []bool
	inflight []*policy.Task
	wrapped  []policy.Queue
	// Least-loaded tournament tree, maintained only on runs that can
	// call leastLoaded (hedging or a retry budget). noLoadIndex is a
	// test hook forcing the O(n) scan so the differential test can
	// prove the index picks identical servers.
	loadIx      *loadIndex
	noLoadIndex bool
	// Early-stop state, sized only on runs with Config.EarlyStop: per
	// check and type, the latencies above the SLO so far, and per check
	// whether it has failed.
	exceeded []int32
	failed   []bool
	// Sharded-core state (shard engines, worker gang, exchange buffers),
	// built on the first sharded run and reused while the (shards,
	// servers, queue kind) shape holds.
	sharded *shardedState
}

// NewArena returns an empty arena. The zero value is also usable.
func NewArena() *Arena { return &Arena{} }

// Release hands a Result obtained from Run back for reuse by the arena's
// next run. The caller must not touch res afterwards.
func (a *Arena) Release(res *Result) {
	if res != nil {
		a.spare = res
	}
}

// getQueryBox returns a pooled query box for an arrival event payload.
//
//tg:hotpath
func (a *Arena) getQueryBox() *workload.Query {
	if n := len(a.qboxes); n > 0 {
		b := a.qboxes[n-1]
		a.qboxes[n-1] = nil
		a.qboxes = a.qboxes[:n-1]
		return b
	}
	return new(workload.Query) //tg:cold pool warm-up, recycled by putQueryBox
}

// putQueryBox zeroes b and returns it to the pool.
//
//tg:hotpath
func (a *Arena) putQueryBox(b *workload.Query) {
	*b = workload.Query{}
	a.qboxes = append(a.qboxes, b)
}

// takeResult returns the arena's spare Result (or a fresh one) reset and
// shaped for cfg: spec name set, timeline recorders present exactly when
// the timeline is enabled.
func (a *Arena) takeResult(cfg *Config) *Result {
	res := a.spare
	a.spare = nil
	if res == nil {
		res = &Result{
			Overall:  metrics.NewLatencyRecorder(cfg.Queries - cfg.Warmup),
			ByClass:  metrics.NewBreakdown[int](1024),
			ByFanout: metrics.NewBreakdown[int](1024),
			ByType:   metrics.NewBreakdown[ClassFanout](1024),
			TaskWait: metrics.NewLatencyRecorder(4096),
		}
	} else {
		res.reset()
	}
	res.Spec = cfg.Spec.Name
	if cfg.TimelineBucketMs > 0 {
		if res.Timeline == nil {
			res.Timeline = metrics.NewBreakdown[int](256)
		}
		if res.TimelineAdmitted == nil {
			res.TimelineAdmitted = make(map[int]int)
		}
		if res.TimelineRejected == nil {
			res.TimelineRejected = make(map[int]int)
		}
	} else {
		res.Timeline = nil
		res.TimelineAdmitted, res.TimelineRejected = nil, nil
	}
	return res
}

// resetBools returns s resized to n with all elements false, reusing its
// backing array when possible.
func resetBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// resetFloats returns s resized to n with all elements zero, reusing its
// backing array when possible.
func resetFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// resetInt32s returns s resized to n with all elements zero, reusing its
// backing array when possible.
func resetInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resetTasks returns s resized to n with all elements nil, reusing its
// backing array when possible.
func resetTasks(s []*policy.Task, n int) []*policy.Task {
	if cap(s) < n {
		return make([]*policy.Task, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = nil
	}
	return s
}

// runner executes one simulation.
type runner struct {
	cfg      Config
	arena    *Arena
	engine   *sim.Engine
	rng      *rand.Rand
	queues   []policy.Queue
	busy     []bool
	paused   []bool
	busyAcc  []float64
	res      *Result
	recycler ServerRecycler
	obs      *obs.Tracer     // nil when tracing is off
	attrib   *obs.Attributor // nil when attribution is off
	// Fault injection and resilience (nil / zero on fault-free runs).
	faults   *fault.Engine
	resil    fault.Resilience
	crashed  []bool         // nil unless faults are injected
	inflight []*policy.Task // nil unless faults are injected
	missWin  *obs.MissWindow
	degraded bool
	// Adaptive control plane (nil / zero unless cfg.Control is set).
	ctl     *control.Controller
	ctlWin  *obs.MissWindow      // feeds Tick's miss-ratio signal
	gate    *workload.CreditGate // nil when backpressure is off
	pending *workload.Query      // arrival deferred by an exhausted gate
	rebase  arrivalRebaser       // generator clock hook, nil if unsupported
	live    int                  // admitted queries not yet settled
	// Event handlers bound once per run: binding a method value
	// allocates, so the hot path must reuse these fields.
	arrivalH  sim.Handler
	enqueueH  sim.Handler
	completeH sim.Handler
	hedgeH    sim.Handler
	ctlH      sim.Handler
	loadIx    *loadIndex // nil unless hedging or retries can read it
	keyBase   float64    // a task's EDF key plus keyBase is its queuing deadline
	missed    int
	tasks     int
	err       error // first internal error; aborts the run
	// Early stop (nil / zero unless cfg.EarlyStop is set): counters and
	// failure flags from the arena, and the checks not yet failed.
	exceeded []int32
	failed   []bool
	stopLeft int
}

// Run executes the configured simulation to completion and returns its
// measurements.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Shards > 1 {
		return runSharded(cfg)
	}
	a := cfg.Arena
	if a == nil {
		a = NewArena()
	}
	if a.engine == nil {
		a.engine = sim.NewEngine()
	}
	a.engine.Reset()
	a.states.reset(nil)

	if a.queueKind != cfg.Spec.Queue {
		a.queues = a.queues[:0]
		a.queueKind = cfg.Spec.Queue
	}
	for len(a.queues) < cfg.Servers {
		q, err := policy.New(cfg.Spec.Queue)
		if err != nil {
			return nil, fmt.Errorf("cluster: building queue: %w", err)
		}
		a.queues = append(a.queues, q)
	}
	queues := a.queues[:cfg.Servers]
	for _, q := range queues {
		q.Reset()
	}
	a.busy = resetBools(a.busy, cfg.Servers)
	a.paused = resetBools(a.paused, cfg.Servers)
	a.busyAcc = resetFloats(a.busyAcc, cfg.Servers)

	res := a.takeResult(&cfg)

	r := &runner{
		cfg:     cfg,
		arena:   a,
		engine:  a.engine,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		queues:  queues,
		busy:    a.busy,
		paused:  a.paused,
		busyAcc: a.busyAcc,
		res:     res,
		obs:     cfg.Obs,
		attrib:  cfg.Attribution,
		faults:  cfg.Faults,
		resil:   cfg.Resilience,
		keyBase: keyBase(&cfg),
	}
	r.recycler, _ = cfg.Generator.(ServerRecycler)
	r.arrivalH = r.onArrivalEvent
	r.enqueueH = r.onEnqueueEvent
	r.completeH = r.onCompleteEvent
	r.hedgeH = r.onHedgeEvent
	for _, f := range cfg.Failures {
		f := f
		if err := r.engine.Schedule(f.Start, func() { r.pause(f.Server) }); err != nil {
			return nil, err
		}
		if err := r.engine.Schedule(f.End, func() { r.resume(f.Server) }); err != nil {
			return nil, err
		}
	}
	if cfg.Faults != nil {
		// Rewind the engine's seeded drop streams so a reused engine
		// replays the identical fault schedule, then schedule the
		// crash/restart transitions.
		cfg.Faults.Reset()
		a.crashed = resetBools(a.crashed, cfg.Servers)
		a.inflight = resetTasks(a.inflight, cfg.Servers)
		r.crashed, r.inflight = a.crashed, a.inflight
		for s := 0; s < cfg.Servers; s++ {
			for _, w := range cfg.Faults.Crashes(s) {
				s, w := s, w
				if err := r.engine.Schedule(w.Start, func() { r.crash(s) }); err != nil {
					return nil, err
				}
				if err := r.engine.Schedule(w.End, func() { r.restart(s) }); err != nil {
					return nil, err
				}
			}
		}
	}
	if cfg.Resilience.Hedge {
		// Hedging wraps every queue so cancelled losers are skimmed back
		// into the task pool instead of being served. The wrapper slice
		// and Drop closure are the hedged mode's per-run allocations.
		a.wrapped = a.wrapped[:0]
		drop := func(t *policy.Task) { a.tasks.Put(t) }
		for _, q := range queues {
			a.wrapped = append(a.wrapped, policy.Hedged{Queue: q, Drop: drop})
		}
		r.queues = a.wrapped
	}
	if (cfg.Resilience.Hedge || cfg.Resilience.RetryBudget > 0) && !a.noLoadIndex {
		// Only hedging and retry placement ever call leastLoaded; other
		// runs skip the index maintenance entirely. Built after the
		// hedge wrapping so loadChanged reads the final queue set.
		if a.loadIx == nil {
			a.loadIx = new(loadIndex)
		}
		a.loadIx.init(cfg.Servers)
		r.loadIx = a.loadIx
	}
	if cfg.Resilience.DegradedAdmission {
		cfg.Admission.SetThresholdScale(1)
		r.missWin = obs.NewMissWindow(cfg.Admission.WindowMs(), 0)
	}
	if cfg.Control != nil {
		if cfg.Admission != nil {
			cfg.Admission.SetThresholdScale(1)
			cfg.Control.AttachAdmission(cfg.Admission)
		}
		r.ctl = cfg.Control
		r.gate = cfg.Control.Gate()
		r.ctlWin = obs.NewMissWindow(cfg.Control.Config().WindowMs, 1)
		r.rebase, _ = cfg.Generator.(arrivalRebaser)
		r.ctlH = r.onControlTick
		if err := r.engine.ScheduleCall(cfg.Control.Config().TickMs, r.ctlH, nil, 0); err != nil {
			return nil, err
		}
	}
	if es := cfg.EarlyStop; es != nil {
		a.exceeded = resetInt32s(a.exceeded, len(es.Checks)*len(es.Checks[0].Quota))
		a.failed = resetBools(a.failed, len(es.Checks))
		r.exceeded, r.failed, r.stopLeft = a.exceeded, a.failed, len(es.Checks)
	}
	if err := r.scheduleNextArrival(); err != nil {
		return nil, err
	}
	r.engine.Run()
	if r.err != nil {
		r.drain()
		return nil, r.err
	}
	if r.res.Stopped {
		r.drain()
	}
	r.finalize()
	return r.res, nil
}

// drain hands back what a run that ended early left in flight: the
// tasks and query boxes pending events carry, tasks still queued, and
// the placement slices of queries never finished. Without it every
// stopped run would leak them out of the arena, and the next run on the
// arena would allocate them afresh.
func (r *runner) drain() {
	a := r.arena
	r.engine.Drain(func(arg any, val float64) {
		switch p := arg.(type) {
		case *policy.Task:
			a.tasks.Put(p)
		case *workload.Query:
			r.recycle(p.Servers, val != 0) // val != 0 marks a hook-injected arrival
			a.putQueryBox(p)
		}
	})
	if r.pending != nil {
		r.recycle(r.pending.Servers, false)
		a.putQueryBox(r.pending)
		r.pending = nil
	}
	for _, q := range a.queues[:r.cfg.Servers] {
		for t := q.Pop(); t != nil; t = q.Pop() {
			a.tasks.Put(t)
		}
	}
	a.states.reset(func(st *queryState) { r.recycle(st.query.Servers, st.injected) })
}

// checkStop counts a recorded latency against every early-stop check not
// yet failed, and stops the run once all of them have failed.
//
//tg:hotpath
func (r *runner) checkStop(class, fanout int, latency float64) {
	es := r.cfg.EarlyStop
	if fanout >= es.Stride {
		return
	}
	t := class*es.Stride + fanout
	for i := range es.Checks {
		c := &es.Checks[i]
		if r.failed[i] || c.Quota[t] == 0 || latency <= c.SLOMs[class] {
			continue
		}
		j := i*len(c.Quota) + t
		r.exceeded[j]++
		if r.exceeded[j] >= c.Quota[t] {
			r.failed[i] = true
			r.stopLeft--
		}
	}
	if r.stopLeft == 0 {
		r.res.Stopped = true
		r.engine.Stop()
	}
}

// fail records the first internal error and stops the engine.
func (r *runner) fail(err error) {
	if r.err == nil {
		r.err = err
		r.engine.Stop()
	}
}

// serviceDistFor returns cfg's service-time distribution for server s.
//
//tg:hotpath
func serviceDistFor(cfg *Config, s int) dist.Distribution {
	if len(cfg.ServiceTimes) == 1 {
		return cfg.ServiceTimes[0]
	}
	return cfg.ServiceTimes[s]
}

// serviceDist returns the service-time distribution for server s.
func (r *runner) serviceDist(s int) dist.Distribution {
	return serviceDistFor(&r.cfg, s)
}

// keyBase returns the constant a run's EDF keys leave out of its task
// deadlines: the Deadliner's tightest class SLO (core.Deadliner.Key),
// so that single-class runs stamp the same keys whatever their SLO, or
// 0 for HeterogeneousDeadlines, whose keys are the deadlines themselves.
func keyBase(cfg *Config) float64 {
	if cfg.HeterogeneousDeadlines {
		return 0
	}
	return cfg.Deadliner.MinSLO()
}

// deadlineForQuery computes the EDF key of a query's tasks under cfg:
// the task queuing deadline less base, the run's keyBase. It honors
// per-query budget overrides (the request-level extension).
//
//tg:hotpath
func deadlineForQuery(cfg *Config, q *workload.Query, base float64) (float64, error) {
	if q.HasBudget {
		return q.Arrival + (q.Budget - base), nil
	}
	if cfg.HeterogeneousDeadlines {
		return cfg.Deadliner.DeadlineServers(q.Arrival, q.Class, q.Servers)
	}
	return cfg.Deadliner.Key(q.Arrival, q.Class, q.Fanout)
}

// missedDeadline reports whether a task dequeued at now missed its
// queuing deadline, key + base; an infinite key never misses.
//
//tg:hotpath
func missedDeadline(now, key, base float64) bool {
	return now > key+base
}

// scheduleNextArrival has the source write the next query into a pooled
// box and schedules its arrival event; each arrival schedules its
// successor until Queries have been generated or the source ends.
//
//tg:hotpath
func (r *runner) scheduleNextArrival() error {
	if r.res.Queries >= r.cfg.Queries {
		return nil
	}
	box := r.arena.getQueryBox()
	if !r.cfg.Generator.NextInto(box) {
		r.arena.putQueryBox(box)
		return nil
	}
	r.res.Queries++
	return r.engine.ScheduleCall(box.Arrival, r.arrivalH, box, 0)
}

// onArrivalEvent processes an arrival event's query in its box (val != 0
// marks hook injection), then returns the box to the pool unless the
// credit gate parked it.
//
//tg:hotpath
func (r *runner) onArrivalEvent(arg any, val float64) {
	box := arg.(*workload.Query)
	r.onArrival(box, val != 0)
	if box != r.pending {
		r.arena.putQueryBox(box)
	}
}

// onEnqueueEvent delivers a dispatched task to its server's queue.
func (r *runner) onEnqueueEvent(arg any, _ float64) {
	t := arg.(*policy.Task)
	r.enqueue(t.Server, t)
}

// onCompleteEvent finishes a task's service; val carries its occupancy.
func (r *runner) onCompleteEvent(arg any, val float64) {
	t := arg.(*policy.Task)
	r.onComplete(t.Server, t, val)
}

// recycle returns a query's placement slice to its source. Injected
// queries are skipped: their Servers belong to the completion hook.
//
//tg:hotpath
func (r *runner) recycle(servers []int, injected bool) {
	if r.recycler == nil || injected || servers == nil {
		return
	}
	r.recycler.Recycle(servers)
}

// onArrival processes one query arrival, read from its box: admission,
// deadline computation, and task dispatch. Injected queries (request
// chaining) skip admission. The query state keeps the one copy of q the
// run makes; the box itself goes back to the pool after this returns.
//
//tg:hotpath
func (r *runner) onArrival(q *workload.Query, injected bool) {
	if !injected {
		if r.gate != nil && !r.gate.TryAcquire() {
			// Credit gate exhausted: park this arrival and stop drawing
			// from the generator until a settling query frees a credit
			// (settleCredit re-injects it and resumes the chain). The
			// source is blocked, not shedding — nothing is rejected here.
			r.res.CreditDeferred++
			r.pending = q
			return
		}
		if err := r.scheduleNextArrival(); err != nil {
			r.fail(err)
			return
		}
	}
	// Offered demand bookkeeping uses the expected service time so that
	// rejected queries (whose tasks are never sampled) count too.
	for _, s := range q.Servers {
		r.res.OfferedLoad += r.serviceDist(s).Mean()
	}
	r.obs.Query(obs.KindArrival, q.Arrival, q.ID, int32(q.Class), float64(q.Fanout))

	if !injected && r.ctl != nil && !r.ctl.AllowClass(q.Class, q.Arrival) {
		// The control plane's token bucket shed this class: best-effort
		// traffic thins first under overload (Value 1 distinguishes a
		// throttle shed from an admission rejection).
		r.res.Throttled++
		if r.res.TimelineRejected != nil {
			r.res.TimelineRejected[r.timelineBucket(q.Arrival)]++
		}
		r.obs.Query(obs.KindReject, q.Arrival, q.ID, int32(q.Class), 1)
		r.settleCredit(q.Arrival)
		r.recycle(q.Servers, injected)
		return
	}
	if !injected && r.cfg.Admission != nil && !r.cfg.Admission.Admit(q.Arrival) {
		r.res.Rejected++
		if r.res.TimelineRejected != nil {
			r.res.TimelineRejected[r.timelineBucket(q.Arrival)]++
		}
		r.obs.Query(obs.KindReject, q.Arrival, q.ID, int32(q.Class), 0)
		r.settleCredit(q.Arrival)
		r.recycle(q.Servers, injected)
		return
	}
	r.res.Admitted++
	if !injected {
		r.live++
	}
	if r.res.TimelineAdmitted != nil && !injected {
		r.res.TimelineAdmitted[r.timelineBucket(q.Arrival)]++
	}

	key, err := deadlineForQuery(&r.cfg, q, r.keyBase)
	if err != nil {
		r.fail(fmt.Errorf("cluster: deadline for query %d: %w", q.ID, err)) //tg:cold config error, aborts the run
		return
	}
	r.obs.Query(obs.KindDeadline, q.Arrival, q.ID, int32(q.Class), key+r.keyBase)
	st, ok := r.arena.states.claim(q.ID)
	if !ok {
		r.fail(fmt.Errorf("cluster: duplicate query ID %d", q.ID)) //tg:cold malformed source, aborts the run
		return
	}
	st.query = *q
	st.stragTask, st.stragSrv = -1, -1
	st.lostSrv = -1
	st.remaining = int32(q.Fanout)
	st.counted = q.ID >= int64(r.cfg.Warmup)
	st.injected = injected

	for i, s := range q.Servers {
		svc := 0.0
		if q.Services != nil {
			svc = q.Services[i]
		} else {
			svc = r.serviceDist(s).Sample(r.rng)
		}
		t := r.arena.tasks.Get()
		t.QueryID = q.ID
		t.Index = i
		t.Server = s
		t.Class = q.Class
		t.Arrival = q.Arrival
		t.Deadline = key
		t.Enqueued = q.Arrival
		t.Service = svc
		r.sendTask(t, q.Arrival)
		if r.err != nil {
			return
		}
	}
}

// sendTask carries a task over the dispatch leg to its server: transport
// faults may drop or delay it, and per-server queuing adds the dispatch
// network delay before enqueue. With a nil fault engine this reduces
// exactly to the pre-fault dispatch logic (same rng draw order, same
// direct-call-vs-event decisions), preserving bit-identical runs.
func (r *runner) sendTask(t *policy.Task, now float64) {
	s := t.Server
	if r.faults.DropSend(s, now) {
		r.taskLost(t, now, true)
		return
	}
	delay := r.faults.SendDelay(s, now)
	viaEvent := false
	if r.cfg.Queuing == PerServerQueuing && r.cfg.DispatchDelay != nil {
		// The task travels to the server before queuing; its wait
		// (t_pr) includes the dispatch leg.
		delay += r.cfg.DispatchDelay.Sample(r.rng)
		viaEvent = true
	}
	if delay > 0 || viaEvent {
		if err := r.engine.ScheduleCall(now+delay, r.enqueueH, t, 0); err != nil {
			r.fail(err)
		}
		return
	}
	r.enqueue(s, t)
}

// enqueue places a task at its server, starting service if idle and up.
// A crashed server refuses the task (it is lost to the fault); a task
// pushed behind a backlog under hedging arms a hedge timer at its
// queuing deadline.
func (r *runner) enqueue(s int, t *policy.Task) {
	if r.crashed != nil && r.crashed[s] {
		r.taskLost(t, r.engine.Now(), true)
		return
	}
	if r.obs != nil {
		r.obs.TaskEvent(obs.KindEnqueue, r.engine.Now(), t.QueryID, int32(t.Index), int32(s), int32(t.Class), 0)
	}
	if r.busy[s] || r.paused[s] {
		r.queues[s].Push(t)
		r.loadChanged(s)
		if r.obs != nil {
			r.obs.QueueDepth(r.engine.Now(), int32(s), r.queues[s].Len())
		}
		if r.resil.Hedge && t.Hedge == nil && !math.IsInf(t.Deadline, 1) {
			// Arm the hedge: if the task is still waiting when its
			// queuing deadline passes (slack exhausted), duplicate it.
			hs := &policy.HedgeState{Primary: t}
			t.Hedge = hs
			at := t.Deadline + r.keyBase
			if now := r.engine.Now(); at < now {
				at = now
			}
			if err := r.engine.ScheduleCall(at, r.hedgeH, hs, 0); err != nil {
				r.fail(err)
				return
			}
		}
	} else {
		r.startService(s, t)
	}
}

// popNext dequeues the next task for server s, emitting the depth sample.
// The index update is unconditional: a hedge-skimming Pop can shorten
// the queue even when it returns nil.
//
//tg:hotpath
func (r *runner) popNext(s int) *policy.Task {
	next := r.queues[s].Pop()
	r.loadChanged(s)
	if next != nil && r.obs != nil {
		r.obs.QueueDepth(r.engine.Now(), int32(s), r.queues[s].Len())
	}
	return next
}

// pause starts a server's outage window.
func (r *runner) pause(s int) {
	r.paused[s] = true
	r.loadChanged(s)
}

// resume ends a server's outage and restarts its queue.
func (r *runner) resume(s int) {
	r.paused[s] = false
	r.loadChanged(s)
	if !r.busy[s] {
		if next := r.popNext(s); next != nil {
			r.startService(s, next)
		}
	}
}

// timelineBucket maps an arrival time onto its timeline bucket.
func (r *runner) timelineBucket(arrival float64) int {
	return int(arrival / r.cfg.TimelineBucketMs)
}

// startService begins serving a task on an idle server.
func (r *runner) startService(s int, t *policy.Task) {
	now := r.engine.Now()
	r.busy[s] = true
	r.loadChanged(s)
	r.tasks++
	t.Dequeued = now
	r.obs.TaskEvent(obs.KindDispatch, now, t.QueryID, int32(t.Index), int32(s), int32(t.Class), now-t.Enqueued)

	missed := missedDeadline(now, t.Deadline, r.keyBase)
	if missed {
		r.missed++
	}
	if r.cfg.Admission != nil {
		r.cfg.Admission.ObserveTask(missed, now)
	}

	st := r.arena.states.get(t.QueryID)
	if st != nil && st.counted {
		if err := r.res.TaskWait.Observe(now - t.Enqueued); err != nil {
			r.fail(err)
			return
		}
	}
	if r.inflight != nil {
		r.inflight[s] = t
	}
	if t.Hedge != nil {
		t.Hedge.Dispatched = true
	}

	// Under central queuing the dequeued task still has to travel to the
	// server; the dispatch leg is part of its post-queuing time and of
	// the server occupancy (the server cannot accept another task until
	// this one completes and the idle signal returns). Service faults
	// stretch the service portion (slowdowns scale it, stalls insert the
	// remainder of the stop window).
	occupancy := t.Service
	if r.faults != nil {
		occupancy = r.faults.Stretch(s, now, t.Service)
	}
	if r.cfg.Queuing == CentralQueuing && r.cfg.DispatchDelay != nil {
		occupancy += r.cfg.DispatchDelay.Sample(r.rng)
	}
	if err := r.engine.ScheduleCallAfter(occupancy, r.completeH, t, occupancy); err != nil {
		r.fail(err)
	}
}

// onComplete handles a task finishing service.
func (r *runner) onComplete(s int, t *policy.Task, svc float64) {
	now := r.engine.Now()
	if r.inflight != nil {
		if r.inflight[s] != t {
			// Stale completion of a crash-aborted task: the crash already
			// accounted for the loss; this event only returns the task to
			// the pool (it could not be pooled at crash time while its
			// completion event still pointed at it).
			r.arena.tasks.Put(t)
			return
		}
		r.inflight[s] = nil
	}
	r.busyAcc[s] += svc

	// Online updating: the post-queuing time observed by the handler when
	// merging the task result. In the simulator that is the service time
	// (dispatch and merge are instantaneous).
	if r.cfg.Estimator != nil {
		if err := r.cfg.Estimator.Observe(s, svc); err != nil {
			r.fail(fmt.Errorf("cluster: online update: %w", err))
			return
		}
	}

	if t.Hedge != nil {
		hs := t.Hedge
		if !hs.Resolve(t) {
			// The sibling copy already finished this logical task (and may
			// have completed the whole query); the loser's completion
			// carries no query-level information.
			r.obs.TaskEvent(obs.KindServiceEnd, now, t.QueryID, int32(t.Index), int32(s), int32(t.Class), now-t.Dequeued)
			r.arena.tasks.Put(t)
			r.serveNext(s)
			return
		}
		if t == hs.Backup {
			r.res.HedgeWins++
		}
	}
	st := r.arena.states.get(t.QueryID)
	if st == nil {
		r.fail(fmt.Errorf("cluster: completion for unknown query %d", t.QueryID))
		return
	}
	r.obs.TaskEvent(obs.KindServiceEnd, now, t.QueryID, int32(t.Index), int32(s), int32(t.Class), now-t.Dequeued)
	if now >= st.maxFinish {
		// This task is the straggler so far: its completion sets the
		// query latency, so record its identity and time split for miss
		// attribution (>= so simultaneous finishes keep the later task).
		st.maxFinish = now
		st.stragTask = int32(t.Index)
		st.stragSrv = int32(s)
		st.stragWait = t.Dequeued - t.Enqueued
		st.stragSvc = now - t.Dequeued
	}
	st.remaining--
	if st.remaining == 0 {
		r.onQueryDone(t.QueryID, st)
	}
	r.arena.tasks.Put(t)
	if r.err != nil {
		return
	}
	r.serveNext(s)
}

// serveNext marks server s idle and, if it is up, starts its next queued
// task (work conservation).
func (r *runner) serveNext(s int) {
	r.busy[s] = false
	r.loadChanged(s)
	if r.paused[s] || (r.crashed != nil && r.crashed[s]) {
		return
	}
	if next := r.popNext(s); next != nil {
		r.startService(s, next)
	}
}

// taskLost accounts for a task copy destroyed by a fault (transport drop,
// crashed-server refusal, crash of the queue or the in-flight task). The
// loss is absorbed when a hedge sibling still covers the logical task or
// the retry budget re-dispatches it; otherwise the query fails. reusable
// says the caller no longer references t, so it may be pooled (false for
// a crash-aborted in-flight task, whose pending completion event still
// points at it — the stale event pools it).
func (r *runner) taskLost(t *policy.Task, now float64, reusable bool) {
	if t.Hedge != nil && t.Hedge.Cancelled(t) {
		// A cancelled hedge loser destroyed by a fault: the race was
		// already decided, nothing is lost.
		if reusable {
			r.arena.tasks.Put(t)
		}
		return
	}
	qid, srv := t.QueryID, t.Server
	r.res.LostTasks++
	st := r.arena.states.get(qid)
	if st == nil {
		r.fail(fmt.Errorf("cluster: lost task for unknown query %d", qid))
		return
	}
	absorbed := false
	if t.Hedge != nil {
		t.Hedge.MarkLost(t)
		absorbed = t.Hedge.SiblingAlive(t)
	}
	if !absorbed && int(st.retries) < r.resil.RetryBudget {
		cls, err := r.cfg.Classes.Class(t.Class)
		if err != nil {
			r.fail(fmt.Errorf("cluster: retrying task of query %d: %w", qid, err))
			return
		}
		dest := r.retryDest(srv)
		if dest >= 0 && now < st.query.Arrival+cls.SLOMs {
			st.retries++
			r.res.Retries++
			nt := t
			if !reusable {
				nt = r.arena.tasks.Get()
				nt.QueryID = t.QueryID
				nt.Index = t.Index
				nt.Class = t.Class
				nt.Arrival = t.Arrival
				nt.Deadline = t.Deadline
			}
			nt.Hedge = nil
			nt.Server = dest
			nt.Service = r.serviceDist(dest).Sample(r.rng)
			nt.Enqueued = now
			nt.Dequeued = 0
			r.obs.TaskEvent(obs.KindTaskLost, now, qid, int32(nt.Index), int32(srv), int32(nt.Class), 1)
			r.sendTask(nt, now)
			return
		}
	}
	if absorbed {
		r.obs.TaskEvent(obs.KindTaskLost, now, qid, int32(t.Index), int32(srv), int32(t.Class), 1)
		if reusable {
			r.arena.tasks.Put(t)
		}
		return
	}
	r.obs.TaskEvent(obs.KindTaskLost, now, qid, int32(t.Index), int32(srv), int32(t.Class), 0)
	st.failed = true
	if st.lostSrv < 0 {
		st.lostSrv = int32(srv)
	}
	st.remaining--
	rem := st.remaining
	if reusable {
		r.arena.tasks.Put(t)
	}
	if rem == 0 {
		r.onQueryDone(qid, st)
	}
}

// crash takes server s down: the in-flight task and every queued task are
// lost to the fault.
func (r *runner) crash(s int) {
	now := r.engine.Now()
	r.crashed[s] = true
	// Down before any taskLost below asks for a retry destination; the
	// drained queue needs no per-pop updates while s carries loadDown.
	r.loadChanged(s)
	if r.busy[s] {
		t := r.inflight[s]
		r.inflight[s] = nil
		r.busy[s] = false
		if t != nil {
			// The aborted task's completion event is still scheduled, so
			// it cannot be pooled here; the stale event returns it.
			r.taskLost(t, now, false)
		}
	}
	for {
		t := r.queues[s].Pop()
		if t == nil {
			break
		}
		r.taskLost(t, now, true)
		if r.err != nil {
			return
		}
	}
	if r.obs != nil {
		r.obs.QueueDepth(now, int32(s), 0)
	}
}

// restart brings a crashed server back with an empty queue.
func (r *runner) restart(s int) {
	r.crashed[s] = false
	r.loadChanged(s)
	if !r.busy[s] && !r.paused[s] {
		if next := r.popNext(s); next != nil {
			r.startService(s, next)
		}
	}
}

// onHedgeEvent fires when a hedge-armed task's queuing deadline passes: if
// the primary is still waiting in its queue, duplicate it to the least
// loaded other server and let the copies race (first finish wins).
func (r *runner) onHedgeEvent(arg any, _ float64) {
	hs := arg.(*policy.HedgeState)
	if !hs.NeedsHedge() {
		return
	}
	now := r.engine.Now()
	p := hs.Primary
	dest := r.leastLoaded(p.Server)
	if dest < 0 {
		return
	}
	b := r.arena.tasks.Get()
	b.QueryID = p.QueryID
	b.Index = p.Index
	b.Class = p.Class
	b.Arrival = p.Arrival
	b.Deadline = p.Deadline
	b.Server = dest
	b.Enqueued = now
	b.Service = r.serviceDist(dest).Sample(r.rng)
	b.Hedge = hs
	hs.Backup = b
	r.res.HedgesIssued++
	r.obs.TaskEvent(obs.KindHedge, now, b.QueryID, int32(b.Index), int32(dest), int32(b.Class), float64(p.Server))
	r.sendTask(b, now)
}

// serverDown reports whether server s can currently accept work.
func (r *runner) serverDown(s int) bool {
	if r.paused[s] {
		return true
	}
	return r.crashed != nil && r.crashed[s]
}

// loadChanged recomputes server s's entry in the least-loaded index
// after any queue, busy, or availability transition. No-op on runs that
// do not maintain the index.
//
//tg:hotpath
func (r *runner) loadChanged(s int) {
	ix := r.loadIx
	if ix == nil {
		return
	}
	if r.paused[s] || (r.crashed != nil && r.crashed[s]) {
		ix.update(s, loadDown)
		return
	}
	load := int32(r.queues[s].Len())
	if r.busy[s] {
		load++
	}
	ix.update(s, load)
}

// leastLoaded returns the up server (excluding exclude) with the fewest
// queued-plus-in-service tasks, lowest index winning ties; -1 if none.
// The tournament tree answers in O(log n); the scan remains as the
// fallback for index-less runs and as the differential-test oracle.
//
//tg:hotpath
func (r *runner) leastLoaded(exclude int) int {
	if r.loadIx != nil {
		return r.loadIx.best(exclude)
	}
	return r.leastLoadedScan(exclude)
}

// leastLoadedScan is the O(n) reference answer to leastLoaded.
func (r *runner) leastLoadedScan(exclude int) int {
	best, bestLoad := -1, 0
	for s := 0; s < r.cfg.Servers; s++ {
		if s == exclude || r.serverDown(s) {
			continue
		}
		load := r.queues[s].Len()
		if r.busy[s] {
			load++
		}
		if best < 0 || load < bestLoad {
			best, bestLoad = s, load
		}
	}
	return best
}

// retryDest picks the server for a lost task's retry: the least loaded
// other up server, the original server if it alone is up, else -1.
func (r *runner) retryDest(lost int) int {
	if dest := r.leastLoaded(lost); dest >= 0 {
		return dest
	}
	if lost >= 0 && lost < r.cfg.Servers && !r.serverDown(lost) {
		return lost
	}
	return -1
}

// updateDegraded polls the fault-dominated-window detector and scales the
// admission threshold down (degraded admission) while it holds.
func (r *runner) updateDegraded(now float64) {
	if r.missWin == nil {
		return
	}
	degraded := r.missWin.FaultDominated(now)
	if degraded == r.degraded {
		return
	}
	r.degraded = degraded
	scale := 1.0
	if degraded {
		scale = r.resil.Scale()
	}
	r.cfg.Admission.SetThresholdScale(scale)
}

// onControlTick advances the adaptive control plane by one period: the
// controller reads the windowed query miss ratio and the in-flight count,
// actuates the admission scale, credit limit, throttle, and active server
// set, and the tick re-arms itself while the run still has work. Once the
// source is exhausted and every query has settled the chain ends so the
// event loop can drain.
func (r *runner) onControlTick(_ any, _ float64) {
	now := r.engine.Now()
	d := r.ctl.Tick(now, control.Signals{MissRatio: r.ctlWin.Ratio(now), InFlight: r.live})
	r.res.ControlTicks++
	r.obs.Emit(obs.Event{
		TimeMs: now, Kind: obs.KindControl, QueryID: -1,
		Task: int32(d.Credits), Server: int32(d.Active), Class: int32(d.Warming),
		Value: d.Scale,
	})
	if r.res.Queries >= r.cfg.Queries && r.live == 0 && r.pending == nil {
		return
	}
	if err := r.engine.ScheduleCall(now+r.ctl.Config().TickMs, r.ctlH, nil, 0); err != nil {
		r.fail(err)
	}
}

// settleCredit returns a settled query's credit to the gate and, if the
// arrival chain is parked behind an exhausted gate, re-injects the held
// query at the current time. The query re-arrives when the frontend
// unblocks, so its arrival — and the generator's clock — are rebased to
// now; the interval the source spent blocked produces no arrivals, which
// is exactly the backpressure the credit loop exists to apply.
func (r *runner) settleCredit(now float64) {
	if r.gate == nil {
		return
	}
	r.gate.Release()
	if r.pending == nil {
		return
	}
	box := r.pending
	r.pending = nil
	box.Arrival = now
	if r.rebase != nil {
		r.rebase.RebaseTo(now)
	}
	if err := r.engine.ScheduleCall(now, r.arrivalH, box, 0); err != nil {
		r.fail(err)
	}
}

// onQueryDone records a finished query and lets the completion hook inject
// follow-up queries (request chaining). st is released (and invalid) once
// this returns.
func (r *runner) onQueryDone(id int64, st *queryState) {
	now := r.engine.Now()
	arrival, cls, fanout, servers := st.query.Arrival, st.query.Class, st.query.Fanout, st.query.Servers
	injected := st.injected
	counted := st.counted
	latency := st.maxFinish - arrival
	if !injected {
		r.live--
	}
	if st.failed {
		// An unabsorbed task loss failed the query: it has no latency.
		// The loss still feeds the fault-dominance detector (with the
		// faulted server as the "straggler") so degraded admission sees
		// crash storms, but no latency statistics or completion event.
		r.res.Failed++
		lostSrv := st.lostSrv
		r.arena.states.release(id)
		r.missWin.Observe(now, true, true, lostSrv)
		r.ctlWin.Observe(now, true, true, lostSrv)
		r.updateDegraded(now)
		if !injected {
			r.settleCredit(now)
		}
		r.recycle(servers, injected)
		return
	}
	r.res.Completed++
	var sloMs float64
	if (r.attrib != nil && counted) || r.missWin != nil || r.ctlWin != nil {
		class, err := r.cfg.Classes.Class(cls)
		if err != nil {
			r.fail(fmt.Errorf("cluster: attributing query %d: %w", id, err))
			return
		}
		sloMs = class.SLOMs
	}
	if r.missWin != nil {
		r.missWin.Observe(now, latency > sloMs, st.stragSvc > st.stragWait, st.stragSrv)
		r.updateDegraded(now)
	}
	r.ctlWin.Observe(now, latency > sloMs, st.stragSvc > st.stragWait, st.stragSrv)
	if r.attrib != nil && counted {
		r.attrib.Observe(obs.QueryOutcome{
			QueryID:            id,
			Class:              cls,
			Fanout:             fanout,
			LatencyMs:          latency,
			SLOMs:              sloMs,
			StragglerTask:      st.stragTask,
			StragglerServer:    st.stragSrv,
			StragglerWaitMs:    st.stragWait,
			StragglerServiceMs: st.stragSvc,
		})
	}
	// The completion hook is the one reader of the whole query; only a run
	// with a hook copies it out before the state is released.
	var done workload.Query
	if r.cfg.OnQueryDone != nil {
		done = st.query
	}
	r.arena.states.release(id)
	r.obs.Query(obs.KindQueryDone, now, id, int32(cls), latency)
	if counted {
		if err := r.res.Overall.Observe(latency); err != nil {
			r.fail(err)
			return
		}
		if err := r.res.ByClass.Observe(cls, latency); err != nil {
			r.fail(err)
			return
		}
		if err := r.res.ByFanout.Observe(fanout, latency); err != nil {
			r.fail(err)
			return
		}
		if err := r.res.ByType.Observe(ClassFanout{Class: cls, Fanout: fanout}, latency); err != nil {
			r.fail(err)
			return
		}
		if r.res.Timeline != nil {
			if err := r.res.Timeline.Observe(r.timelineBucket(arrival), latency); err != nil {
				r.fail(err)
				return
			}
		}
		if r.cfg.EarlyStop != nil {
			r.checkStop(cls, fanout, latency)
		}
	}
	if !injected {
		r.settleCredit(now)
	}
	if r.cfg.OnQueryDone != nil {
		next := r.cfg.OnQueryDone(done, latency, now)
		for i := range next {
			r.res.Injected++
			box := r.arena.getQueryBox()
			*box = next[i]
			if box.Arrival < now {
				box.Arrival = now
			}
			if err := r.engine.ScheduleCall(box.Arrival, r.arrivalH, box, 1); err != nil {
				r.fail(err)
				return
			}
		}
	}
	r.recycle(servers, injected)
}

// finalize computes the run-level aggregates.
func (r *runner) finalize() {
	if r.missWin != nil || (r.ctl != nil && r.cfg.Admission != nil) {
		// Leave the shared admission controller at its nominal threshold.
		r.cfg.Admission.SetThresholdScale(1)
	}
	r.res.Duration = r.engine.Now()
	if r.res.Duration > 0 {
		var busy float64
		for _, b := range r.busyAcc {
			busy += b
		}
		capacity := r.res.Duration * float64(r.cfg.Servers)
		r.res.Utilization = busy / capacity
		r.res.OfferedLoad /= capacity
	}
	if r.tasks > 0 {
		r.res.TaskMissRatio = float64(r.missed) / float64(r.tasks)
	}
}

// MeetsSLOs reports whether every query type (class, fanout) with at least
// minSamples post-warmup samples met its class's tail-latency SLO — the
// paper's per-type compliance criterion. It returns the worst margin
// (measured tail / SLO) across checked types; a margin <= 1 passes. A run
// in which no type reached minSamples has no verdict and is an error, as
// is a run that stopped early (its samples are a prefix).
func (res *Result) MeetsSLOs(classes *workload.ClassSet, minSamples int) (bool, float64, error) {
	ok, worst := []bool{false}, []float64{0}
	if err := res.meetsSLOs([]*workload.ClassSet{classes}, minSamples, ok, worst); err != nil {
		return false, 0, err
	}
	if math.IsNaN(worst[0]) {
		return false, 0, fmt.Errorf("cluster: NaN SLO margin")
	}
	return ok[0], worst[0], nil
}

// MeetsSLOsEach is MeetsSLOs for several class sets read off one run —
// the SLO rows of a max-load search that share a probe — writing set k's
// verdict to ok[k]. A type's tail is read once for a run of consecutive
// sets that give its class the same percentile, not once per set.
func (res *Result) MeetsSLOsEach(sets []*workload.ClassSet, minSamples int, ok []bool) error {
	if len(ok) != len(sets) {
		return fmt.Errorf("cluster: %d verdict slots for %d class sets", len(ok), len(sets))
	}
	return res.meetsSLOs(sets, minSamples, ok, nil)
}

// meetsSLOs computes MeetsSLOs's verdict for each set into ok and, when
// worst is non-nil, its worst margin into worst.
func (res *Result) meetsSLOs(sets []*workload.ClassSet, minSamples int, ok []bool, worst []float64) error {
	for k, classes := range sets {
		if classes == nil {
			return fmt.Errorf("cluster: class set required")
		}
		ok[k] = true
	}
	if res.Stopped {
		return fmt.Errorf("cluster: run stopped early; its samples cannot decide an SLO verdict")
	}
	if minSamples < 1 {
		minSamples = 1
	}
	checked, largest := 0, 0
	var firstErr error
	res.ByType.Each(func(key ClassFanout, rec *metrics.LatencyRecorder) {
		largest = max(largest, rec.Count())
		if rec.Count() < minSamples || firstErr != nil {
			return
		}
		checked++
		var tail, p float64
		for k, classes := range sets {
			cls, err := classes.Class(key.Class)
			if err != nil {
				firstErr = err
				return
			}
			if k == 0 || cls.Percentile != p {
				if tail, err = rec.Quantile(cls.Percentile); err != nil {
					firstErr = err
					return
				}
				p = cls.Percentile
			}
			if margin := tail / cls.SLOMs; worst != nil && margin > worst[k] {
				worst[k] = margin
			}
			if tail > cls.SLOMs {
				ok[k] = false
			}
		}
	})
	if firstErr != nil {
		return firstErr
	}
	if checked == 0 {
		return fmt.Errorf("cluster: no query type reached %d samples (%d types seen, the largest has %d)",
			minSamples, res.ByType.Len(), largest)
	}
	return nil
}
