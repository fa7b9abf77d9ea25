// Sharded parallel core: one simulation run spread across P discrete-event
// shards under the conservative time-window protocol (DESIGN.md §13).
//
// Servers are striped across shards (server s lives on shard s%P at local
// index s/P). The run is a three-stage pipeline:
//
//	pump  -> shards -> merger
//
// The pump goroutine owns every random stream the sequential engine draws
// in arrival order (the generator's rng, the cluster rng's service and
// dispatch-delay samples, the fault engine's per-server drop streams) and
// turns each arrival batch into per-shard taskMsg exchange queues plus a
// stream of bookkeeping records. The coordinator delivers each batch at a
// window barrier — every message is stamped at or after the previous
// window's limit, so no shard ever schedules into its past — and the
// shards advance independently inside the window: arrival processing
// never reads server state and servers never talk to each other, so the
// dataflow is acyclic and the protocol needs no shard-to-shard lookahead.
// Each shard appends its observation records (dispatch waits, completions,
// fault losses) to a per-shard stream in its own deterministic event
// order; the merger k-way-merges the P+1 time-sorted streams back into the
// sequential engine's observation order and feeds the result recorders,
// whose floating-point sums are order-sensitive. The merge key is
// (time, pump records first, then task index): at one instant the
// sequential engine records a query's start before its same-instant
// immediate dispatches and orders those dispatches by task index, which is
// exactly this key. Records from different queries colliding at the same
// instant across shards have no defined relative order; with continuous
// service/interarrival distributions such ties have measure zero, which is
// why the stock scenarios are bit-identical at every shard count (the
// golden tests pin this).
//
// Features whose semantics are inherently global-order-dependent
// (admission feedback, online estimation, hedging and retries, lifecycle
// tracing, completion hooks, central-queuing dispatch delays) are rejected
// up front by validateSharded; everything else — all fault kinds, failure
// windows, per-server queuing dispatch delays, attribution, timelines —
// runs sharded with bit-identical results.
package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"tailguard/internal/fault"
	"tailguard/internal/obs"
	"tailguard/internal/policy"
	"tailguard/internal/sim"
	"tailguard/internal/workload"
)

// defaultShardWindowMs is the conservative window width when the config
// does not choose one. Any positive width yields the same Result; the
// width only trades barrier frequency against delivery batch size.
const defaultShardWindowMs = 1.0

// shardWindow returns the run's window width in ms.
func shardWindow(cfg *Config) float64 {
	if cfg.ShardWindowMs > 0 {
		return cfg.ShardWindowMs
	}
	return defaultShardWindowMs
}

// taskMsg is one task crossing the pump->shard exchange. It is a pure
// value — no pointers — so shards share nothing with the pump: the task
// object itself is materialized from the destination shard's own pool at
// delivery time.
type taskMsg struct {
	enqueueAt float64 // arrival + transport/dispatch delay
	arrival   float64
	deadline  float64
	service   float64
	qid       int64
	server    int32 // global server id
	index     int32
	class     int32
}

// mergeRec kinds.
const (
	recQueryStart uint8 = iota // pump: admitted query (idx=fanout, cls=class)
	recDispatch                // shard: task dequeued (wait=t_pr), post-warmup only
	recComplete                // shard: task finished (wait=t_pr, svc=t_po)
	recLost                    // pump or shard: task copy destroyed by a fault
)

// mergeRec is one observation record flowing shard->merger (or
// pump->merger). The merger replays records in the sequential engine's
// observation order, reconstructed by merging the per-stream records on
// (at, pump first, idx).
type mergeRec struct {
	at   float64
	wait float64
	svc  float64
	qid  int64
	srv  int32
	idx  int32
	cls  int32
	kind uint8
}

// shardBatch carries one window's work from the pump: the per-shard
// exchange queues and the pump's own record stream, plus the window limit.
type shardBatch struct {
	hi   float64
	msgs [][]taskMsg // indexed by destination shard
	recs []mergeRec  // query starts and send-drop losses, arrival order
	err  error
}

// shardBundle carries one window's P+1 record streams to the merger:
// streams[0] is the pump's, streams[1+i] is shard i's.
type shardBundle struct {
	streams [][]mergeRec
	cur     []int // merge cursors, reused across bundles
}

// shardExchange recycles batches and bundles between the pump, the
// coordinator and the merger. Its mutex is a leaf: it is never held
// across a channel operation or any other blocking call (all slice
// truncation happens outside the critical section).
//
//tg:lockorder tailguard/internal/parallel.Pool.mu < shardExchange.mu
type shardExchange struct {
	mu      sync.Mutex
	batches []*shardBatch
	bundles []*shardBundle
}

// getBatch returns a recycled (or fresh) batch shaped for p shards.
func (ex *shardExchange) getBatch(p int) *shardBatch {
	ex.mu.Lock()
	var b *shardBatch
	if n := len(ex.batches); n > 0 {
		b = ex.batches[n-1]
		ex.batches[n-1] = nil
		ex.batches = ex.batches[:n-1]
	}
	ex.mu.Unlock()
	if b == nil {
		b = &shardBatch{msgs: make([][]taskMsg, p)} //tg:cold pool warm-up
	}
	return b
}

// reset truncates the batch for reuse, keeping slice capacity.
func (b *shardBatch) reset() {
	for i := range b.msgs {
		b.msgs[i] = b.msgs[i][:0]
	}
	b.recs = b.recs[:0]
	b.hi, b.err = 0, nil
}

// putBatch truncates b (keeping capacity) and pools it.
func (ex *shardExchange) putBatch(b *shardBatch) {
	b.reset()
	ex.mu.Lock()
	ex.batches = append(ex.batches, b)
	ex.mu.Unlock()
}

// getBundle returns a recycled (or fresh) bundle with n streams.
func (ex *shardExchange) getBundle(n int) *shardBundle {
	ex.mu.Lock()
	var bu *shardBundle
	if m := len(ex.bundles); m > 0 {
		bu = ex.bundles[m-1]
		ex.bundles[m-1] = nil
		ex.bundles = ex.bundles[:m-1]
	}
	ex.mu.Unlock()
	if bu == nil {
		bu = &shardBundle{streams: make([][]mergeRec, n), cur: make([]int, n)} //tg:cold pool warm-up
	}
	return bu
}

// reset truncates the bundle's streams for reuse, keeping capacity.
func (bu *shardBundle) reset() {
	for i := range bu.streams {
		bu.streams[i] = bu.streams[i][:0]
	}
}

// putBundle truncates bu's streams (keeping capacity) and pools it.
func (ex *shardExchange) putBundle(bu *shardBundle) {
	bu.reset()
	ex.mu.Lock()
	ex.bundles = append(ex.bundles, bu)
	ex.mu.Unlock()
}

// clusterShard is one shard's server-side state: the striped subset of
// queues, busy/paused/crashed flags and busy-time accumulators, its own
// task pool, and the record stream it feeds the merger. It mirrors the
// sequential runner's enqueue/startService/complete/crash logic exactly,
// minus the features validateSharded rejects. Inside a window only the
// shard's own worker touches it; between windows the coordinator swaps
// out its record stream (the gang barrier is the happens-before edge).
type clusterShard struct {
	id      int
	nShards int
	cfg     *Config
	engine  *sim.Engine
	faults  *fault.Engine
	pool    policy.TaskPool
	queues  []policy.Queue
	busy    []bool
	paused  []bool
	busyAcc []float64
	// crashed/inflight are sized only on fault runs, like the sequential
	// engine, so fault-free runs skip their bookkeeping entirely.
	crashed  []bool
	inflight []*policy.Task
	recs     []mergeRec
	enqH     sim.Handler
	compH    sim.Handler
	warmup   int64
	keyBase  float64
	nMissed  int
	nTasks   int
	err      error
}

// nLocal returns the number of servers striped onto shard id.
func shardLocalCount(servers, shards, id int) int {
	return (servers - id + shards - 1) / shards
}

// prepare resets the shard for one run and schedules its failure windows
// (config order) and crash/restart transitions (server-ascending), giving
// them the same low-sequence-number priority over same-time deliveries
// that the sequential engine's init-time scheduling gives them.
func (sh *clusterShard) prepare(cfg *Config) error {
	sh.cfg = cfg
	sh.faults = cfg.Faults
	sh.warmup = int64(cfg.Warmup)
	sh.keyBase = keyBase(cfg)
	sh.err = nil
	sh.nMissed, sh.nTasks = 0, 0
	sh.recs = sh.recs[:0]
	n := shardLocalCount(cfg.Servers, sh.nShards, sh.id)
	for _, q := range sh.queues {
		q.Reset()
	}
	sh.busy = resetBools(sh.busy, n)
	sh.paused = resetBools(sh.paused, n)
	sh.busyAcc = resetFloats(sh.busyAcc, n)
	if cfg.Faults != nil {
		sh.crashed = resetBools(sh.crashed, n)
		sh.inflight = resetTasks(sh.inflight, n)
	} else {
		sh.crashed, sh.inflight = nil, nil
	}
	for _, f := range cfg.Failures {
		if f.Server%sh.nShards != sh.id {
			continue
		}
		l := f.Server / sh.nShards
		if err := sh.engine.Schedule(f.Start, func() { sh.paused[l] = true }); err != nil {
			return err
		}
		if err := sh.engine.Schedule(f.End, func() { sh.resume(l) }); err != nil {
			return err
		}
	}
	if cfg.Faults != nil {
		for s := sh.id; s < cfg.Servers; s += sh.nShards {
			l := s / sh.nShards
			for _, w := range cfg.Faults.Crashes(s) {
				l, w := l, w
				if err := sh.engine.Schedule(w.Start, func() { sh.crash(l) }); err != nil {
					return err
				}
				if err := sh.engine.Schedule(w.End, func() { sh.restart(l) }); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// fail records the shard's first internal error and stops its engine; the
// coordinator aborts the run at the next barrier.
func (sh *clusterShard) fail(err error) {
	if sh.err == nil {
		sh.err = err
		sh.engine.Stop()
	}
}

// emit appends one observation record to the shard's stream. Records are
// emitted at the engine's current time, so the stream is time-sorted.
//
//tg:hotpath
func (sh *clusterShard) emit(r mergeRec) {
	sh.recs = append(sh.recs, r)
}

// deliverWindow materializes one window's exchange messages into tasks
// from the shard's own pool and schedules their enqueue events. Delivery
// order is the pump's emission order (arrival, then task index), which
// reproduces the sequential engine's schedule order for same-instant
// events on this shard's servers.
//
//tg:hotpath
func (sh *clusterShard) deliverWindow(msgs []taskMsg) error {
	for k := range msgs {
		m := &msgs[k]
		t := sh.pool.Get()
		t.QueryID = m.qid
		t.Index = int(m.index)
		t.Server = int(m.server)
		t.Class = int(m.class)
		t.Arrival = m.arrival
		t.Deadline = m.deadline
		t.Enqueued = m.arrival
		t.Service = m.service
		if err := sh.engine.ScheduleCall(m.enqueueAt, sh.enqH, t, 0); err != nil {
			sh.pool.Put(t)
			return err
		}
	}
	return nil
}

// onEnqueueEvent delivers a dispatched task to its server's queue,
// mirroring the sequential runner's enqueue (crashed servers refuse the
// task; busy or paused servers queue it; idle servers start service).
//
//tg:hotpath
func (sh *clusterShard) onEnqueueEvent(arg any, _ float64) {
	t := arg.(*policy.Task)
	l := t.Server / sh.nShards
	if sh.crashed != nil && sh.crashed[l] {
		sh.taskLost(t, sh.engine.Now(), true)
		return
	}
	if sh.busy[l] || sh.paused[l] {
		sh.queues[l].Push(t)
	} else {
		sh.startService(l, t)
	}
}

// startService begins serving a task on an idle local server, mirroring
// the sequential runner (deadline-miss accounting, dispatch record for
// the merger's TaskWait stream, fault-stretched occupancy).
//
//tg:hotpath
func (sh *clusterShard) startService(l int, t *policy.Task) {
	now := sh.engine.Now()
	sh.busy[l] = true
	sh.nTasks++
	t.Dequeued = now
	if missedDeadline(now, t.Deadline, sh.keyBase) {
		sh.nMissed++
	}
	if t.QueryID >= sh.warmup {
		sh.emit(mergeRec{at: now, wait: now - t.Enqueued, qid: t.QueryID,
			srv: int32(t.Server), idx: int32(t.Index), kind: recDispatch})
	}
	if sh.inflight != nil {
		sh.inflight[l] = t
	}
	occupancy := t.Service
	if sh.faults != nil {
		occupancy = sh.faults.Stretch(t.Server, now, t.Service)
	}
	if err := sh.engine.ScheduleCallAfter(occupancy, sh.compH, t, occupancy); err != nil {
		sh.fail(err)
	}
}

// onCompleteEvent finishes a task's service: stale completions of
// crash-aborted tasks only return the task to the pool; live completions
// accumulate busy time, emit the completion record, and serve the next
// queued task (work conservation).
//
//tg:hotpath
func (sh *clusterShard) onCompleteEvent(arg any, val float64) {
	t := arg.(*policy.Task)
	l := t.Server / sh.nShards
	now := sh.engine.Now()
	if sh.inflight != nil {
		if sh.inflight[l] != t {
			sh.pool.Put(t)
			return
		}
		sh.inflight[l] = nil
	}
	sh.busyAcc[l] += val
	sh.emit(mergeRec{at: now, wait: t.Dequeued - t.Enqueued, svc: now - t.Dequeued,
		qid: t.QueryID, srv: int32(t.Server), idx: int32(t.Index), kind: recComplete})
	sh.pool.Put(t)
	sh.serveNext(l)
}

// serveNext marks local server l idle and, if it is up, starts its next
// queued task.
//
//tg:hotpath
func (sh *clusterShard) serveNext(l int) {
	sh.busy[l] = false
	if sh.paused[l] || (sh.crashed != nil && sh.crashed[l]) {
		return
	}
	if next := sh.queues[l].Pop(); next != nil {
		sh.startService(l, next)
	}
}

// taskLost emits the loss record for a task copy destroyed by a fault.
// The query-level bookkeeping (failed flag, remaining count, Failed
// counter) happens merger-side in merged order. reusable mirrors the
// sequential engine: a crash-aborted in-flight task cannot be pooled
// while its completion event still points at it.
func (sh *clusterShard) taskLost(t *policy.Task, now float64, reusable bool) {
	sh.emit(mergeRec{at: now, qid: t.QueryID, srv: int32(t.Server), idx: int32(t.Index), kind: recLost})
	if reusable {
		sh.pool.Put(t)
	}
}

// crash takes local server l down: the in-flight task and every queued
// task are lost to the fault, in the same pop order as the sequential
// engine.
func (sh *clusterShard) crash(l int) {
	now := sh.engine.Now()
	sh.crashed[l] = true
	if sh.busy[l] {
		t := sh.inflight[l]
		sh.inflight[l] = nil
		sh.busy[l] = false
		if t != nil {
			sh.taskLost(t, now, false)
		}
	}
	for {
		t := sh.queues[l].Pop()
		if t == nil {
			break
		}
		sh.taskLost(t, now, true)
	}
}

// restart brings a crashed local server back with an empty queue.
func (sh *clusterShard) restart(l int) {
	sh.crashed[l] = false
	if !sh.busy[l] && !sh.paused[l] {
		if next := sh.queues[l].Pop(); next != nil {
			sh.startService(l, next)
		}
	}
}

// resume ends a local server's outage and restarts its queue.
func (sh *clusterShard) resume(l int) {
	sh.paused[l] = false
	if !sh.busy[l] {
		if next := sh.queues[l].Pop(); next != nil {
			sh.startService(l, next)
		}
	}
}

// shardPump generates arrival batches on its own goroutine. It owns every
// random stream the sequential engine consumes in arrival order — the
// generator's internal rng, the cluster rng (service samples and
// per-server-queuing dispatch delays, drawn in arrival-then-task-index
// order exactly as the sequential engine draws them), and the fault
// engine's per-server drop streams — so each stream's draw order is
// independent of shard count and scheduling.
type shardPump struct {
	cfg      *Config
	rng      *rand.Rand
	faults   *fault.Engine
	recycler ServerRecycler
	keyBase  float64
	shards   int
	windowMs float64
	pending  workload.Query
	have     bool
	// Run-level aggregates folded into the Result after the pipeline
	// drains; the pump keeps them private so no goroutine shares the
	// Result with the merger.
	generated        int
	admitted         int
	offered          float64
	lastArr          float64
	timelineAdmitted map[int]int
}

// next prefetches the pump's next query into pending, mirroring the
// sequential engine's one-ahead generator draw discipline (one NextInto
// call per generated query, in arrival order).
//
//tg:hotpath
func (p *shardPump) next() {
	p.have = false
	if p.generated >= p.cfg.Queries || !p.cfg.Generator.NextInto(&p.pending) {
		return
	}
	p.generated++
	p.have = true
}

// emitQuery turns the pending query into exchange messages and pump
// records, drawing the cluster rng and fault drop streams in the
// sequential engine's order.
//
//tg:hotpath
func (p *shardPump) emitQuery(b *shardBatch) error {
	q := &p.pending
	if q.Arrival < p.lastArr {
		return fmt.Errorf("cluster: sharded run requires nondecreasing arrivals: query %d at %v after %v", q.ID, q.Arrival, p.lastArr) //tg:cold malformed source
	}
	p.lastArr = q.Arrival
	cfg := p.cfg
	for _, s := range q.Servers {
		p.offered += serviceDistFor(cfg, s).Mean()
	}
	p.admitted++
	if p.timelineAdmitted != nil {
		p.timelineAdmitted[int(q.Arrival/cfg.TimelineBucketMs)]++
	}
	deadline, err := deadlineForQuery(cfg, q, p.keyBase)
	if err != nil {
		return fmt.Errorf("cluster: deadline for query %d: %w", q.ID, err) //tg:cold config error
	}
	b.recs = append(b.recs, mergeRec{at: q.Arrival, qid: q.ID,
		idx: int32(q.Fanout), cls: int32(q.Class), kind: recQueryStart})
	for i, s := range q.Servers {
		svc := 0.0
		if q.Services != nil {
			svc = q.Services[i]
		} else {
			svc = serviceDistFor(cfg, s).Sample(p.rng)
		}
		if p.faults.DropSend(s, q.Arrival) {
			// Dropped on the dispatch leg: like the sequential engine, the
			// send delay and dispatch delay are never sampled for a
			// dropped copy.
			b.recs = append(b.recs, mergeRec{at: q.Arrival, qid: q.ID,
				srv: int32(s), idx: int32(i), kind: recLost})
			continue
		}
		delay := p.faults.SendDelay(s, q.Arrival)
		if cfg.Queuing == PerServerQueuing && cfg.DispatchDelay != nil {
			delay += cfg.DispatchDelay.Sample(p.rng)
		}
		dst := s % p.shards
		b.msgs[dst] = append(b.msgs[dst], taskMsg{
			enqueueAt: q.Arrival + delay,
			arrival:   q.Arrival,
			deadline:  deadline,
			service:   svc,
			qid:       q.ID,
			server:    int32(s),
			index:     int32(i),
			class:     int32(q.Class),
		})
	}
	if p.recycler != nil && q.Servers != nil {
		p.recycler.Recycle(q.Servers)
	}
	return nil
}

// run produces batches until the source ends, an error occurs, or the
// coordinator aborts. Each batch covers the window [first arrival,
// first arrival + W): the loop condition (not float window arithmetic)
// guarantees every later batch's arrivals are at or after this batch's
// limit, so deliveries can never land in a shard's past.
func (p *shardPump) run(batchCh chan<- *shardBatch, quit <-chan struct{}, ex *shardExchange) {
	defer close(batchCh)
	p.next()
	for p.have {
		select {
		case <-quit:
			return
		default:
		}
		b := ex.getBatch(p.shards)
		w := p.windowMs
		hi := p.pending.Arrival + w
		for hi <= p.pending.Arrival {
			// Extreme arrival times can absorb the width; widen until the
			// window clears the arrival (any width is equally correct).
			w *= 2
			hi = p.pending.Arrival + w
		}
		var err error
		for p.have && p.pending.Arrival < hi {
			if err = p.emitQuery(b); err != nil {
				break
			}
			p.next()
		}
		b.hi = hi
		b.err = err
		select {
		case batchCh <- b:
		case <-quit:
			return
		}
		if err != nil {
			return
		}
	}
}

// shardMerger replays the merged observation streams into the Result on
// its own goroutine, reproducing the sequential engine's recorder update
// order (and so its bit-exact floating-point sums).
type shardMerger struct {
	cfg    *Config
	res    *Result
	states *stateStore
	attrib *obs.Attributor
	err    error
}

// run consumes bundles until the coordinator closes the channel.
func (m *shardMerger) run(bundleCh <-chan *shardBundle, ex *shardExchange, done chan<- struct{}) {
	defer close(done)
	for bu := range bundleCh {
		if m.err == nil {
			m.consume(bu)
		}
		ex.putBundle(bu)
	}
}

// consume k-way-merges one bundle's time-sorted streams in
// (at, pump-stream-first, task-index) order and applies each record. A
// linear min-scan over P+1 cursors beats a heap for the shard counts in
// scope (P <= 16).
//
//tg:hotpath
func (m *shardMerger) consume(bu *shardBundle) {
	n := len(bu.streams)
	cur := bu.cur
	for i := 0; i < n; i++ {
		cur[i] = 0
	}
	for {
		best := -1
		for i := 0; i < n; i++ {
			if cur[i] >= len(bu.streams[i]) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			r := &bu.streams[i][cur[i]]
			b := &bu.streams[best][cur[best]]
			// Scanning from stream 0 (the pump) upward means the pump
			// wins ties by default and shard ties fall to task index.
			if r.at < b.at || (r.at == b.at && best != 0 && r.idx < b.idx) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		r := &bu.streams[best][cur[best]]
		cur[best]++
		m.apply(r)
		if m.err != nil {
			return
		}
	}
}

// apply replays one observation record, mirroring the sequential
// runner's bookkeeping for the corresponding event.
//
//tg:hotpath
func (m *shardMerger) apply(r *mergeRec) {
	switch r.kind {
	case recQueryStart:
		st, ok := m.states.claim(r.qid)
		if !ok {
			m.err = fmt.Errorf("cluster: duplicate query ID %d", r.qid) //tg:cold malformed source
			return
		}
		st.query.ID = r.qid
		st.query.Arrival = r.at
		st.query.Class = int(r.cls)
		st.query.Fanout = int(r.idx)
		st.stragTask, st.stragSrv = -1, -1
		st.lostSrv = -1
		st.remaining = r.idx
		st.counted = r.qid >= int64(m.cfg.Warmup)
	case recDispatch:
		if err := m.res.TaskWait.Observe(r.wait); err != nil {
			m.err = err
		}
	case recComplete:
		st := m.states.get(r.qid)
		if st == nil {
			m.err = fmt.Errorf("cluster: completion for unknown query %d", r.qid) //tg:cold internal invariant
			return
		}
		if r.at >= st.maxFinish {
			// Straggler so far (>= keeps the later task on simultaneous
			// finishes, like the sequential engine).
			st.maxFinish = r.at
			st.stragTask = r.idx
			st.stragSrv = r.srv
			st.stragWait = r.wait
			st.stragSvc = r.svc
		}
		st.remaining--
		if st.remaining == 0 {
			m.queryDone(r.qid, st)
		}
	case recLost:
		m.res.LostTasks++
		st := m.states.get(r.qid)
		if st == nil {
			m.err = fmt.Errorf("cluster: lost task for unknown query %d", r.qid) //tg:cold internal invariant
			return
		}
		st.failed = true
		if st.lostSrv < 0 {
			st.lostSrv = r.srv
		}
		st.remaining--
		if st.remaining == 0 {
			m.queryDone(r.qid, st)
		}
	}
}

// queryDone records a finished query, mirroring the sequential
// onQueryDone minus the features validateSharded rejects. st is released
// (and invalid) once this returns.
func (m *shardMerger) queryDone(id int64, st *queryState) {
	arrival, cls, fanout := st.query.Arrival, st.query.Class, st.query.Fanout
	counted := st.counted
	latency := st.maxFinish - arrival
	if st.failed {
		m.res.Failed++
		m.states.release(id)
		return
	}
	m.res.Completed++
	if m.attrib != nil && counted {
		class, err := m.cfg.Classes.Class(cls)
		if err != nil {
			m.err = fmt.Errorf("cluster: attributing query %d: %w", id, err)
			return
		}
		m.attrib.Observe(obs.QueryOutcome{
			QueryID:            id,
			Class:              cls,
			Fanout:             fanout,
			LatencyMs:          latency,
			SLOMs:              class.SLOMs,
			StragglerTask:      st.stragTask,
			StragglerServer:    st.stragSrv,
			StragglerWaitMs:    st.stragWait,
			StragglerServiceMs: st.stragSvc,
		})
	}
	m.states.release(id)
	if counted {
		if err := m.res.Overall.Observe(latency); err != nil {
			m.err = err
			return
		}
		if err := m.res.ByClass.Observe(cls, latency); err != nil {
			m.err = err
			return
		}
		if err := m.res.ByFanout.Observe(fanout, latency); err != nil {
			m.err = err
			return
		}
		if err := m.res.ByType.Observe(ClassFanout{Class: cls, Fanout: fanout}, latency); err != nil {
			m.err = err
			return
		}
		if m.res.Timeline != nil {
			if err := m.res.Timeline.Observe(int(arrival/m.cfg.TimelineBucketMs), latency); err != nil {
				m.err = err
				return
			}
		}
	}
}

// shardedState is the arena's reusable sharded-core machinery: the shard
// engines and their worker gang, the per-shard server state, and the
// exchange pools. It is rebuilt only when the (shards, servers, queue
// kind) shape changes.
type shardedState struct {
	set       *sim.ShardSet
	shards    []*clusterShard
	ex        shardExchange
	servers   int
	kind      policy.Kind
	curBatch  *shardBatch
	deliverFn func(int) error
}

// deliver is the per-window gang callback: worker i drains the current
// batch's shard-i exchange queue into its engine.
//
//tg:hotpath
func (ss *shardedState) deliver(i int) error {
	return ss.shards[i].deliverWindow(ss.curBatch.msgs[i])
}

// firstShardErr returns the lowest-shard-index internal error of the last
// window, if any.
func (ss *shardedState) firstShardErr() error {
	for _, sh := range ss.shards {
		if sh.err != nil {
			return sh.err
		}
	}
	return nil
}

// shardedFor returns the arena's sharded state, rebuilding it when the
// run's shape changed.
func (a *Arena) shardedFor(cfg *Config) (*shardedState, error) {
	ss := a.sharded
	if ss != nil && (ss.servers != cfg.Servers || len(ss.shards) != cfg.Shards || ss.kind != cfg.Spec.Queue) {
		ss.set.Stop()
		ss = nil
	}
	if ss == nil {
		ss = &shardedState{
			set:     sim.NewShardSet(cfg.Shards),
			shards:  make([]*clusterShard, cfg.Shards),
			servers: cfg.Servers,
			kind:    cfg.Spec.Queue,
		}
		for i := range ss.shards {
			sh := &clusterShard{id: i, nShards: cfg.Shards, engine: ss.set.Engine(i)}
			for n := shardLocalCount(cfg.Servers, cfg.Shards, i); len(sh.queues) < n; {
				q, err := policy.New(cfg.Spec.Queue)
				if err != nil {
					return nil, fmt.Errorf("cluster: building shard queue: %w", err)
				}
				sh.queues = append(sh.queues, q)
			}
			sh.enqH = sh.onEnqueueEvent
			sh.compH = sh.onCompleteEvent
			ss.shards[i] = sh
		}
		ss.deliverFn = ss.deliver
		a.sharded = ss
	}
	return ss, nil
}

// runSharded executes the configured simulation on the sharded parallel
// core. The caller has already validated cfg (including validateSharded).
func runSharded(cfg Config) (*Result, error) {
	a := cfg.Arena
	if a == nil {
		a = NewArena()
	}
	a.states.reset(nil)
	ss, err := a.shardedFor(&cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		// Rewind the seeded drop streams so a reused engine replays the
		// identical fault schedule.
		cfg.Faults.Reset()
	}
	ss.set.Reset()
	for _, sh := range ss.shards {
		if err := sh.prepare(&cfg); err != nil {
			return nil, err
		}
	}
	res := a.takeResult(&cfg)

	pump := &shardPump{
		cfg:      &cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		faults:   cfg.Faults,
		keyBase:  keyBase(&cfg),
		shards:   cfg.Shards,
		windowMs: shardWindow(&cfg),
	}
	pump.recycler, _ = cfg.Generator.(ServerRecycler)
	if cfg.TimelineBucketMs > 0 {
		pump.timelineAdmitted = make(map[int]int)
	}
	merger := &shardMerger{cfg: &cfg, res: res, states: &a.states, attrib: cfg.Attribution}

	batchCh := make(chan *shardBatch, 2)
	bundleCh := make(chan *shardBundle, 2)
	quit := make(chan struct{})
	mergeDone := make(chan struct{})
	ss.set.Start()
	defer ss.set.Stop()
	go pump.run(batchCh, quit, &ss.ex)
	go merger.run(bundleCh, &ss.ex, mergeDone)

	var runErr error
	for b := range batchCh {
		if b.err != nil {
			runErr = b.err
			ss.ex.putBatch(b)
			break
		}
		ss.curBatch = b
		err := ss.set.RunWindow(b.hi, ss.deliverFn)
		if err == nil {
			err = ss.firstShardErr()
		}
		if err != nil {
			runErr = err
			ss.ex.putBatch(b)
			break
		}
		// Hand this window's record streams to the merger, swapping in the
		// recycled bundle's empty (capacity-preserving) slices.
		bu := ss.ex.getBundle(len(ss.shards) + 1)
		bu.streams[0], b.recs = b.recs, bu.streams[0]
		for i, sh := range ss.shards {
			bu.streams[1+i], sh.recs = sh.recs, bu.streams[1+i]
		}
		ss.ex.putBatch(b)
		bundleCh <- bu
	}
	if runErr != nil {
		close(quit)
		for b := range batchCh {
			ss.ex.putBatch(b)
		}
	} else {
		// Final window: drain the in-flight completions past the last
		// arrival batch, then ship the tail records.
		err := ss.set.Drain(nil)
		if err == nil {
			err = ss.firstShardErr()
		}
		if err != nil {
			runErr = err
		} else {
			bu := ss.ex.getBundle(len(ss.shards) + 1)
			for i, sh := range ss.shards {
				bu.streams[1+i], sh.recs = sh.recs, bu.streams[1+i]
			}
			bundleCh <- bu
		}
	}
	close(bundleCh)
	<-mergeDone
	if runErr == nil {
		runErr = merger.err
	}
	if runErr != nil {
		return nil, runErr
	}

	res.Queries = pump.generated
	res.Admitted = pump.admitted
	res.OfferedLoad = pump.offered
	// The sequential clock ends at the last executed event: the latest
	// shard event or the last arrival, whichever is later.
	dur := ss.set.MaxNow()
	if pump.lastArr > dur {
		dur = pump.lastArr
	}
	res.Duration = dur
	if dur > 0 {
		// Sum busy time in global server order so the floating-point sum
		// is bit-identical to the sequential engine's.
		var busy float64
		for s := 0; s < cfg.Servers; s++ {
			busy += ss.shards[s%cfg.Shards].busyAcc[s/cfg.Shards]
		}
		capacity := dur * float64(cfg.Servers)
		res.Utilization = busy / capacity
		res.OfferedLoad /= capacity
	}
	var nTasks, nMissed int
	for _, sh := range ss.shards {
		nTasks += sh.nTasks
		nMissed += sh.nMissed
	}
	if nTasks > 0 {
		res.TaskMissRatio = float64(nMissed) / float64(nTasks)
	}
	if res.TimelineAdmitted != nil && pump.timelineAdmitted != nil {
		// Fold in sorted-bucket order so map iteration order never leaks
		// into observable behavior (detflow).
		keys := make([]int, 0, len(pump.timelineAdmitted))
		for k := range pump.timelineAdmitted {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			res.TimelineAdmitted[k] = pump.timelineAdmitted[k]
		}
	}
	return res, nil
}
