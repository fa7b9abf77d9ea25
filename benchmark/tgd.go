package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tailguard/internal/core"
	"tailguard/internal/dist"
	"tailguard/internal/fault"
	"tailguard/internal/parallel"
	"tailguard/internal/tgd"
	"tailguard/internal/workload"
)

// tgdParams is what differs between the two daemon workloads.
type tgdParams struct {
	name    string
	journal bool       // FileStore journal instead of MemStore
	rates   [3]float64 // open-loop steps, queries per second
	nackPct uint64     // per cent of first-delivery leases the worker NACKs
}

var (
	tgdOpen    = tgdParams{name: "tgd-open", rates: [3]float64{1000, 2000, 3000}}
	tgdDurable = tgdParams{name: "tgd-durable", journal: true, rates: [3]float64{1000, 2000, 3000}, nackPct: 5}
)

const (
	tgdRefStep    = 1   // index into rates: the reference rate
	tgdBacklog    = 256 // tasks the closed-loop producer keeps outstanding
	tgdMaxFanout  = 16
	tgdSendLimit  = 2 * time.Second // per enqueue; longer counts as failed
	tgdDrainLimit = 2 * time.Second // after a phase; queries still open count as timed out
)

var tgdSLOMs = [2]float64{20, 60}

// tgdEnv is a daemon serving on a loopback listener plus the two client
// connections the load uses: one for the producer, one for the worker.
type tgdEnv struct {
	p       tgdParams
	classes *workload.ClassSet
	fan     workload.FanoutDist
	cfg     tgd.Config // Store left nil; openDaemon fills it
	journal string     // "" for MemStore

	d       *tgd.Daemon
	srv     *http.Server
	served  chan error
	stopped bool
	prodTr  *http.Transport
	workTr  *http.Transport
	prod    *tgd.Client
	work    *tgd.Client
}

func oneConn() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
}

func tgdConfig() (tgd.Config, *workload.ClassSet, workload.FanoutDist, error) {
	w, err := dist.TailbenchWorkload("masstree")
	if err != nil {
		return tgd.Config{}, nil, nil, err
	}
	classes, err := workload.NewClassSet([]workload.Class{
		{ID: 0, Name: "tight", SLOMs: tgdSLOMs[0], Percentile: 0.99, Weight: 1},
		{ID: 1, Name: "loose", SLOMs: tgdSLOMs[1], Percentile: 0.99, Weight: 1},
	})
	if err != nil {
		return tgd.Config{}, nil, nil, err
	}
	fan, err := workload.NewInverseProportional([]int{1, 4, tgdMaxFanout})
	if err != nil {
		return tgd.Config{}, nil, nil, err
	}
	est, err := core.NewHomogeneousStaticTailEstimator(w.ServiceTime, tgdMaxFanout)
	if err != nil {
		return tgd.Config{}, nil, nil, err
	}
	dl, err := core.NewDeadliner(core.TFEDFQ, est, classes)
	if err != nil {
		return tgd.Config{}, nil, nil, err
	}
	return tgd.Config{
		Deadliner: dl,
		// A task is NACKed at most once, so a query never needs more
		// retries than it has tasks: no query fails on the retry budget.
		Resilience: fault.Resilience{RetryBudget: tgdMaxFanout},
		// A NACKed task's backoff is a few milliseconds; the default
		// 100 ms repair period would hold the last retries of a phase
		// past their SLO with nobody left to wake the claim.
		RepairEvery: 5 * time.Millisecond,
	}, classes, fan, nil
}

// openDaemon builds a daemon on a journal file (replaying whatever it
// already holds) or, with no journal, on a MemStore.
//
// The journal is flushed to the kernel on every append but not fsync'd.
// On the sandbox's disk one fsync takes 80 to 220 µs depending on the
// second it is issued in, so every number of an fsync'd run wanders by
// 10 to 50 % between runs — wider than any bound the benchmark may set.
// The fsync'd append is measured alone, as tgd.store_fsync_append_us.
func openDaemon(cfg tgd.Config, journal string) (*tgd.Daemon, error) {
	if journal != "" {
		st, err := tgd.OpenFileStore(journal, false)
		if err != nil {
			return nil, err
		}
		cfg.Store = st
	}
	return tgd.New(cfg)
}

func tgdSetup(e *env, p tgdParams) (*tgdEnv, error) {
	cfg, classes, fan, err := tgdConfig()
	if err != nil {
		return nil, err
	}
	t := &tgdEnv{p: p, classes: classes, fan: fan, cfg: cfg}
	if p.journal {
		if err := os.MkdirAll(e.outDir, 0o755); err != nil {
			return nil, err
		}
		t.journal = filepath.Join(e.outDir, fmt.Sprintf("%s-%d.journal", p.name, os.Getpid()))
		if err := os.Remove(t.journal); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	if t.d, err = openDaemon(cfg, t.journal); err != nil {
		return nil, err
	}
	t.d.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.d.Close()
		return nil, err
	}
	t.srv = &http.Server{Handler: t.d.Mux()}
	t.served = make(chan error, 1)
	go func() { t.served <- t.srv.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	t.prodTr, t.workTr = oneConn(), oneConn()
	t.prod, t.work = tgd.NewClient(url, t.prodTr), tgd.NewClient(url, t.workTr)

	// Warm-up requests: both connections dialled, every handler and the
	// journal exercised once before anything is timed.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < e.size(300, 5); i++ {
		if _, err := t.prod.Enqueue(ctx, tgd.EnqueueRequest{Class: i % 2, Fanout: 2}); err != nil {
			t.stop()
			return nil, fmt.Errorf("benchmark: warm-up enqueue: %w", err)
		}
		for range 2 {
			l, err := t.work.Claim(ctx, tgd.ClaimRequest{Worker: "warm"})
			if err != nil || l == nil {
				t.stop()
				return nil, fmt.Errorf("benchmark: warm-up claim: lease %v, err %v", l, err)
			}
			if _, err := t.work.Complete(ctx, tgd.CompleteRequest{QueryID: l.QueryID, TaskIndex: l.TaskIndex, LeaseID: l.LeaseID, Worker: "warm"}); err != nil {
				t.stop()
				return nil, fmt.Errorf("benchmark: warm-up complete: %w", err)
			}
		}
	}
	return t, nil
}

// stop shuts the listener and the daemon down and waits for the serving
// goroutine; the journal stays on disk for the recovery measurement.
// Only the first call does anything.
func (t *tgdEnv) stop() error {
	if t.stopped {
		return nil
	}
	t.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := t.srv.Shutdown(ctx)
	if serr := <-t.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	t.prodTr.CloseIdleConnections()
	t.workTr.CloseIdleConnections()
	if cerr := t.d.Close(); err == nil {
		err = cerr
	}
	return err
}

// teardown is stop plus removing the journal.
func (t *tgdEnv) teardown() error {
	err := t.stop()
	if t.journal != "" {
		if rerr := os.Remove(t.journal); err == nil && !errors.Is(rerr, os.ErrNotExist) {
			err = rerr
		}
	}
	return err
}

// --- worker ---------------------------------------------------------------

// taskRec is what the worker saw of one claimed task, stamped with the
// claim's return time (offset from the measurement epoch).
type taskRec struct {
	at          time.Duration
	claimWaitMs float64 // Lease.NowMs - Lease.EnqueuedMs
	slackMs     float64 // Lease.DeadlineMs - Lease.NowMs
}

type doneRec struct {
	seq int64
	at  time.Duration
}

// tgdWorker is the one task server: claim, then complete (or NACK), with
// zero service time, over its own connection. Its slices belong to its
// goroutine until run returns.
type tgdWorker struct {
	c     *tgd.Client
	p     tgdParams
	seed  int64
	epoch time.Time
	l     *lane

	settled atomic.Int64  // tasks completed, read by the closed-loop producer
	wake    chan struct{} // nudges a producer waiting on the backlog

	tasks    []taskRec
	settleAt []time.Duration
	emptyAt  []time.Duration // claims that came back 204
	done     []doneRec       // completions that reported QueryDone

	claims, missed, conflicts, errs int64
}

func (w *tgdWorker) shouldNack(seq int64, l *tgd.Lease) bool {
	if w.p.nackPct == 0 || l.Attempt != 1 {
		return false
	}
	h := parallel.SplitMix64(uint64(w.seed) ^ uint64(seq)<<8 ^ uint64(l.TaskIndex))
	return h%100 < w.p.nackPct
}

func (w *tgdWorker) run(ctx context.Context) {
	for ctx.Err() == nil {
		t0 := time.Now()
		lease, err := w.c.Claim(ctx, tgd.ClaimRequest{Worker: "w0", WaitMs: 20})
		t1 := time.Now()
		if err != nil {
			if ctx.Err() == nil {
				w.errs++
			}
			continue
		}
		w.claims++
		if lease == nil {
			w.emptyAt = append(w.emptyAt, t1.Sub(w.epoch))
			continue
		}
		seq, err := strconv.ParseInt(string(lease.Payload), 10, 64)
		if err != nil {
			w.errs++ // not a task this run enqueued
			continue
		}
		w.l.add("claim", t0, t1, -1, seq)
		w.tasks = append(w.tasks, taskRec{at: t1.Sub(w.epoch), claimWaitMs: lease.NowMs - lease.EnqueuedMs, slackMs: lease.DeadlineMs - lease.NowMs})
		if w.shouldNack(seq, lease) {
			_, err := w.c.Nack(ctx, tgd.NackRequest{QueryID: lease.QueryID, TaskIndex: lease.TaskIndex, LeaseID: lease.LeaseID, Worker: "w0", Reason: "seeded"})
			w.l.add("nack", t1, time.Now(), -1, seq)
			if err != nil {
				w.errs++
			}
			continue
		}
		resp, err := w.c.Complete(ctx, tgd.CompleteRequest{QueryID: lease.QueryID, TaskIndex: lease.TaskIndex, LeaseID: lease.LeaseID, Worker: "w0"})
		t2 := time.Now()
		w.l.add("complete", t1, t2, -1, seq)
		switch {
		case tgd.IsConflict(err):
			w.conflicts++
			continue
		case err != nil:
			w.errs++
			continue
		case resp.Duplicate: // counted by the daemon; see tgd.duplicates
			continue
		}
		if resp.Missed {
			w.missed++
		}
		w.settleAt = append(w.settleAt, t2.Sub(w.epoch))
		if resp.QueryDone {
			w.done = append(w.done, doneRec{seq: seq, at: t2.Sub(w.epoch)})
		}
		w.settled.Add(1)
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// --- producer and phases --------------------------------------------------

// phaseSpec is one stretch of load: an open-loop Poisson step at rate
// queries per second, or (rate 0) the closed-loop saturation phase.
type phaseSpec struct {
	name string
	rate float64
	dur  time.Duration
}

// queryMeta is the producer's record of one query, indexed by its
// sequence number (which is also every task's payload).
type queryMeta struct {
	class, fanout int
	due           time.Duration // offset from the measurement epoch
	accepted      bool
}

type phaseResult struct {
	spec         phaseSpec
	start, end   time.Duration // offsets from the measurement epoch
	seqLo, seqHi int64
	sends        []sendRec // open-loop phases only
	mem          memDelta
	snapLo       tgd.Snapshot
	snapHi       tgd.Snapshot
}

// measurement is one producer + worker session against the daemon.
type measurement struct {
	t      *tgdEnv
	e      *env
	epoch  time.Time
	l      *lane // producer's lane; nil when untraced
	w      *tgdWorker
	rng    *rand.Rand
	meta   []queryMeta
	tasks  int64 // tasks of accepted queries
	phases []phaseResult
	ready  []readySample // Snapshot().Ready every 10 ms, traced sessions only
}

type readySample struct {
	at    time.Duration
	ready int
}

// enqueue sends query seq over the producer's connection.
func (m *measurement) enqueue(ctx context.Context, seq int64) error {
	q := &m.meta[seq]
	payload := json.RawMessage(strconv.AppendInt(nil, seq, 10))
	payloads := make([]json.RawMessage, q.fanout)
	for i := range payloads {
		payloads[i] = payload
	}
	ctx, cancel := context.WithTimeout(ctx, tgdSendLimit)
	defer cancel()
	t0 := time.Now()
	_, err := m.t.prod.Enqueue(ctx, tgd.EnqueueRequest{Class: q.class, Fanout: q.fanout, Payloads: payloads})
	m.l.add("enqueue", t0, time.Now(), -1, seq)
	if err == nil {
		q.accepted = true
		m.tasks += int64(q.fanout)
	}
	return err
}

func (m *measurement) runPhase(ctx context.Context, spec phaseSpec) {
	pr := phaseResult{spec: spec, seqLo: int64(len(m.meta)), snapLo: m.t.d.Snapshot()}
	mem := markMem()
	start := time.Now()
	pr.start = start.Sub(m.epoch)
	if spec.rate > 0 {
		sched := poissonSchedule(m.rng, spec.rate, spec.dur, m.t.classes, m.t.fan)
		for _, a := range sched {
			m.meta = append(m.meta, queryMeta{class: a.class, fanout: a.fanout, due: pr.start + a.due})
		}
		pr.sends = openLoop(start, sched, func(i int) error { return m.enqueue(ctx, pr.seqLo+int64(i)) })
	} else {
		// Closed loop: top the backlog up whenever the worker has eaten
		// into it. A query is due the moment it is sent.
		end := start.Add(spec.dur)
		for time.Now().Before(end) {
			if m.tasks-m.w.settled.Load() >= tgdBacklog {
				select {
				case <-m.w.wake:
				case <-time.After(time.Millisecond):
				}
				continue
			}
			seq := int64(len(m.meta))
			m.meta = append(m.meta, queryMeta{class: m.t.classes.Sample(m.rng), fanout: m.t.fan.Sample(m.rng), due: time.Since(m.epoch)})
			_ = m.enqueue(ctx, seq) // the failure is in meta[seq].accepted
		}
	}
	pr.end = time.Since(m.epoch)
	pr.mem = mem.since()
	pr.seqHi = int64(len(m.meta))
	// Drain, so the next phase starts from an empty daemon and this
	// phase's stragglers are not charged to it.
	for limit := time.Now().Add(tgdDrainLimit); m.w.settled.Load() < m.tasks && time.Now().Before(limit); {
		time.Sleep(time.Millisecond)
	}
	pr.snapHi = m.t.d.Snapshot()
	m.phases = append(m.phases, pr)
}

// measure runs the phases with one producer (this goroutine) and one
// worker goroutine, then stops the worker and waits for it.
func (t *tgdEnv) measure(e *env, traced bool, seedIdx int, phases []phaseSpec) *measurement {
	m := &measurement{t: t, e: e, epoch: time.Now(), rng: rand.New(rand.NewSource(parallel.DeriveSeed(e.seed, seedIdx)))}
	if traced {
		m.epoch = e.tr.epoch // span times and phase offsets share one clock
	}
	m.w = &tgdWorker{c: t.work, p: t.p, seed: e.seed, epoch: m.epoch, wake: make(chan struct{}, 1)}
	if traced {
		m.l, m.w.l = e.tr.lane("producer"), e.tr.lane("worker")
		m.l.reserve()
		m.w.l.reserve()
	}
	// Every record buffer gets its full size now. Grown on demand, they
	// would raise the live heap through the session, the collector would
	// run less and less often, and throughput would drift upwards with
	// the benchmark's own bookkeeping.
	var total time.Duration
	for _, p := range phases {
		total += p.dur
	}
	maxTasks := int(total.Seconds()*25_000) + 1024
	m.meta = make([]queryMeta, 0, maxTasks/2)
	m.w.tasks = make([]taskRec, 0, maxTasks)
	m.w.settleAt = make([]time.Duration, 0, maxTasks)
	m.w.done = make([]doneRec, 0, maxTasks/2)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); m.w.run(ctx) }()
	if traced {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					m.ready = append(m.ready, readySample{at: time.Since(m.epoch), ready: t.d.Snapshot().Ready})
				}
			}
		}()
	}
	for _, p := range phases {
		m.runPhase(ctx, p)
	}
	cancel()
	wg.Wait()
	return m
}

// --- reading a measurement ------------------------------------------------

// check verifies exactly-once completion: every accepted query was
// reported done by exactly one Complete, nothing else was.
func (m *measurement) check(o *outcome) (doneAt []time.Duration) {
	doneAt = make([]time.Duration, len(m.meta))
	count := make([]int, len(m.meta))
	for _, d := range m.w.done {
		if d.seq < 0 || d.seq >= int64(len(m.meta)) {
			o.problem("%s: completion for unknown query seq %d", m.t.p.name, d.seq)
			continue
		}
		count[d.seq]++
		doneAt[d.seq] = d.at
	}
	var never, twice int
	for seq, q := range m.meta {
		switch {
		case q.accepted && count[seq] == 0:
			never++
			doneAt[seq] = -1
		case count[seq] > 1 || (!q.accepted && count[seq] > 0):
			twice++
		}
	}
	if never > 0 {
		o.problem("%s: %d accepted queries never reported done within %v of their phase", m.t.p.name, never, tgdDrainLimit)
	}
	if twice > 0 {
		o.problem("%s: %d queries reported done more than once or without being accepted", m.t.p.name, twice)
	}
	if m.w.errs > 0 {
		o.problem("%s: worker saw %d transport or daemon errors", m.t.p.name, m.w.errs)
	}
	return doneAt
}

// summary is the latency view of one phase.
func (m *measurement) summary(pr phaseResult, doneAt []time.Duration) latencySummary {
	recs := make([]queryRec, 0, pr.seqHi-pr.seqLo)
	for seq := pr.seqLo; seq < pr.seqHi; seq++ {
		q := m.meta[seq]
		r := queryRec{dueS: q.due.Seconds(), doneS: -1, sloMs: tgdSLOMs[q.class], accepted: q.accepted}
		if doneAt[seq] >= 0 {
			r.doneS = doneAt[seq].Seconds()
		}
		recs = append(recs, r)
	}
	return summarize(recs)
}

// count adds the session's queries to the outcome's attempted and
// failed totals.
func (m *measurement) count(doneAt []time.Duration, o *outcome) {
	for _, pr := range m.phases {
		ps := m.summary(pr, doneAt)
		o.attempted += int64(ps.sent)
		o.failed += int64(ps.failed)
	}
}

// settleRates is tasks settled per second in each sub-window of a
// phase; the phase's throughput is their median.
func (m *measurement) settleRates(pr phaseResult) []float64 {
	var times []float64
	for _, at := range m.w.settleAt {
		if inPhase(pr, at) {
			times = append(times, (at - pr.start).Seconds())
		}
	}
	return windowRates(times, (pr.end - pr.start).Seconds(), m.e.window(), 1)
}

func (m *measurement) phase(name string) phaseResult {
	for _, pr := range m.phases {
		if pr.spec.name == name {
			return pr
		}
	}
	return phaseResult{}
}

func inPhase(pr phaseResult, at time.Duration) bool { return at >= pr.start && at < pr.end }

// --- the workload ---------------------------------------------------------

func runTgd(e *env, p tgdParams) (*outcome, error) {
	o := newOutcome()
	var t *tgdEnv
	err := e.setup(o, func() (err error) { t, err = tgdSetup(e, p); return err }, func() error { return t.teardown() })
	if err != nil {
		return nil, err
	}
	defer t.teardown()
	gcMark := markMem()

	secs := func(share float64) time.Duration { return time.Duration(share * e.seconds * float64(time.Second)) }
	ref := phaseSpec{name: "ref", rate: p.rates[tgdRefStep]}
	var m, untraced *measurement
	if e.trace {
		untraced = t.measure(e, false, 0, []phaseSpec{{name: "saturation", dur: secs(0.2)}})
		var phases []phaseSpec
		for i, r := range p.rates {
			ps := phaseSpec{name: fmt.Sprintf("step%d", i), rate: r, dur: secs(0.18)}
			if i == tgdRefStep {
				ps.name = ref.name
			}
			phases = append(phases, ps)
		}
		m = t.measure(e, true, 1, append(phases, phaseSpec{name: "saturation", dur: secs(0.26)}))
	} else {
		// All the time goes to the two phases the end-to-end numbers
		// come from; the other rate steps run in the traced run only.
		ref.dur = secs(0.5)
		m = t.measure(e, false, 1, []phaseSpec{ref, {name: "saturation", dur: secs(0.5)}})
	}
	o.setGC(gcMark.since())

	doneAt := m.check(o)
	refPhase := m.phase("ref")
	sat := m.phase("saturation")
	rs := m.summary(refPhase, doneAt)
	if len(rs.latMs) == 0 {
		return nil, fmt.Errorf("benchmark: no query completed at the reference rate")
	}
	refSpan := (refPhase.end - refPhase.start).Seconds()
	o.set("query_p50_ms", rs.percentile(0.5, refPhase.start.Seconds(), refSpan, e.window()))
	o.set("query_p99_ms", quantile(sortedCopy(rs.latMs), 0.99))
	o.set("slo_attainment", rs.attainment)
	satRates := m.settleRates(sat)
	o.set("tasks_per_s", median(satRates))
	o.notef("saturation tasks/s per %.2g s window: %.0f", e.window(), satRates)
	o.notef("reference rate %.0f q/s: %d queries sent, %d latency samples (%d beyond p99); p50 is the median over %.2g s windows",
		refPhase.spec.rate, rs.sent, len(rs.latMs), len(rs.latMs)/100, e.window())

	m.count(doneAt, o)
	if untraced != nil {
		untraced.count(untraced.check(o), o)
	}

	// Accounting must close: nothing lost, nothing counted twice.
	snap := t.d.Snapshot()
	if snap.CompletedTasks != snap.Tasks {
		o.problem("%s: daemon completed %d of %d tasks", p.name, snap.CompletedTasks, snap.Tasks)
	}
	if snap.QueriesDone+snap.QueriesFailed != snap.Queries {
		o.problem("%s: daemon done %d + failed %d != %d queries", p.name, snap.QueriesDone, snap.QueriesFailed, snap.Queries)
	}
	if snap.QueriesFailed != 0 {
		o.problem("%s: daemon failed %d queries", p.name, snap.QueriesFailed)
	}

	if e.trace {
		tgdTraceMetrics(e, t, m, untraced, doneAt, o)
		if err := tgdLayers(e, t, o); err != nil {
			return nil, err
		}
	}

	if err := t.stop(); err != nil {
		return nil, err
	}
	if p.journal {
		if err := tgdRecovery(t, snap, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// tgdRecovery restarts a daemon on the run's journal, timing tgd.New,
// and checks that the replayed accounting equals what the first daemon
// reported before it closed. Leases, claims and retries are volatile by
// design and are not compared.
func tgdRecovery(t *tgdEnv, pre tgd.Snapshot, o *outcome) error {
	st, err := os.Stat(t.journal)
	if err != nil {
		return err
	}
	start := time.Now()
	d, err := openDaemon(t.cfg, t.journal)
	recovery := time.Since(start)
	if err != nil {
		return fmt.Errorf("benchmark: reopening the journal: %w", err)
	}
	post := d.Snapshot()
	if err := d.Close(); err != nil {
		return err
	}
	type pair struct {
		name     string
		pre, got int64
	}
	for _, c := range []pair{
		{"queries", pre.Queries, post.Queries}, {"tasks", pre.Tasks, post.Tasks},
		{"completed_tasks", pre.CompletedTasks, post.CompletedTasks}, {"queries_done", pre.QueriesDone, post.QueriesDone},
		{"queries_failed", pre.QueriesFailed, post.QueriesFailed}, {"missed", pre.Missed, post.Missed},
	} {
		if c.pre != c.got {
			o.problem("%s: %s is %d after replay, was %d before close", t.p.name, c.name, c.got, c.pre)
		}
	}
	o.set("recovery_s", recovery.Seconds())
	o.set("tgd.journal_bytes_per_task", float64(st.Size())/float64(pre.Tasks))
	o.notef("journal %d bytes, %d records, on the disk under %s", st.Size(), pre.Queries+pre.CompletedTasks+pre.QueriesFailed, filepath.Dir(t.journal))
	return nil
}

// tgdTraceMetrics reads the per-layer numbers that come from the traced
// session itself: client-side spans, lease stamps, snapshot deltas.
func tgdTraceMetrics(e *env, t *tgdEnv, m, untraced *measurement, doneAt []time.Duration, o *outcome) {
	refPhase := m.phase("ref")
	sat := m.phase("saturation")

	// Round trips over the socket, from the saturation phase: the
	// backlog never empties there, so a claim never parks.
	inSat := func(s span) bool { return time.Duration(s.start) >= sat.start && time.Duration(s.end) < sat.end }
	spans, _, _ := e.tr.flatten()
	for _, call := range []string{"enqueue", "claim", "complete"} {
		o.set("tgd.sock_"+call+"_us", median(durationsUs(spans, call, inSat)))
	}

	// Waiting, at the reference rate.
	var waits, slacks []float64
	for _, tr := range m.w.tasks {
		if inPhase(refPhase, tr.at) {
			waits = append(waits, tr.claimWaitMs)
			slacks = append(slacks, tr.slackMs)
		}
	}
	sort.Float64s(waits)
	sort.Float64s(slacks)
	o.set("tgd.claim_wait_ms_p50", quantile(waits, 0.5))
	o.set("tgd.claim_wait_ms_p99", quantile(waits, 0.99))
	o.set("tgd.slack_at_claim_ms_p50", quantile(slacks, 0.5))
	o.set("tgd.slack_at_claim_ms_p01", quantile(slacks, 0.01))
	var depth []float64
	for _, r := range m.ready {
		if inPhase(refPhase, r.at) {
			depth = append(depth, float64(r.ready))
		}
	}
	sort.Float64s(depth)
	o.set("tgd.ready_depth_p99", quantile(depth, 0.99))

	// Waste and failure, over the whole traced session.
	lo, hi := m.phases[0].snapLo, m.phases[len(m.phases)-1].snapHi
	tasks := float64(hi.CompletedTasks - lo.CompletedTasks)
	o.set("tgd.deadline_miss_ratio", float64(m.w.missed)/tasks)
	o.set("tgd.empty_claim_ratio", float64(len(m.w.emptyAt))/float64(m.w.claims))
	o.set("tgd.retries_per_task", float64(hi.Retries-lo.Retries)/tasks)
	o.set("tgd.expired", float64(hi.Expired-lo.Expired))
	o.set("tgd.duplicates", float64(hi.Duplicates-lo.Duplicates))
	o.set("tgd.conflicts", float64(m.w.conflicts))

	// Memory, at saturation. Process-wide: the daemon, both clients and
	// the benchmark's own records.
	satTasks := float64(sat.snapHi.CompletedTasks - sat.snapLo.CompletedTasks)
	o.set("tgd.allocs_per_task", sat.mem.mallocs/satTasks)
	o.set("tgd.bytes_per_task", sat.mem.bytes/satTasks)

	// The load generator itself.
	var sent, failed int
	var sends []sendRec
	best := 0.0
	for _, pr := range m.phases {
		ps := m.summary(pr, doneAt)
		sent += ps.sent
		failed += ps.failed
		sends = append(sends, pr.sends...)
		if pr.spec.rate > 0 {
			grew := readyGrew(m.ready, pr)
			from, span := pr.start.Seconds(), (pr.end - pr.start).Seconds()
			fmt.Fprintf(os.Stderr, "# %s %6.0f q/s: sent %d failed %d p50 %.3f ms p99 %.3f ms attainment %.4f ready-growing %v\n",
				pr.spec.name, pr.spec.rate, ps.sent, ps.failed, ps.percentile(0.5, from, span, e.window()), quantile(sortedCopy(ps.latMs), 0.99), ps.attainment, grew)
			if ps.attainment >= 0.99 && !grew && pr.spec.rate > best {
				best = pr.spec.rate
			}
		}
	}
	o.set("loadgen.sent", float64(sent))
	o.set("loadgen.ok", float64(sent-failed))
	o.set("loadgen.failed", float64(failed))
	o.set("loadgen.lag_p99_ms", lagP99Ms(sends))
	o.set("loadgen.max_rate_step_qps", best)

	plain := untraced.phase("saturation")
	base := median(untraced.settleRates(plain))
	o.set("bench.trace_overhead_frac", (base-median(m.settleRates(sat)))/base)
}

// readyGrew reports whether the ready queue was deeper at the end of an
// open-loop step than at its start: a backlog that grows across a step
// means the rate is not sustainable, whatever the latency says so far.
// The slack of 16 tasks is one maximum-fanout query.
func readyGrew(samples []readySample, pr phaseResult) bool {
	third := (pr.end - pr.start) / 3
	var head, tail []float64
	for _, s := range samples {
		switch {
		case s.at >= pr.start && s.at < pr.start+third:
			head = append(head, float64(s.ready))
		case s.at >= pr.end-third && s.at < pr.end:
			tail = append(tail, float64(s.ready))
		}
	}
	if len(head) == 0 || len(tail) == 0 {
		return false
	}
	mean := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	return mean(tail) > mean(head)+tgdMaxFanout
}
