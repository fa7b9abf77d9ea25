package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"tailguard/internal/workload"
)

// Deadliner computes task queuing deadlines for queries. One Deadliner is
// shared by all task queues of a cluster (queuing may be central or
// per-server; the deadline is a property of the query either way).
//
// Eqn. 6's deadline t0 + SLO_c − x splits into a per-class constant and a
// tail term x (x_p^u(kf) under TF-EDFQ, 0 under T-EDFQ, −Inf with no
// deadline). The tail terms are served from a dense [class][fanout] table
// published through one atomic pointer, so the steady-state lookup — the
// paper's "lightweight" deadline estimation — is three atomic loads and an
// index, with no lock and no hashing, from any number of goroutines.
// Entries are filled lazily, one per miss, under mu (a fresh Deadliner
// does no work until its first lookup, which is what keeps a sweep's
// per-probe set-up flat). The table is stamped with the estimator epoch
// it was computed at: when an online CDF's version advances the epoch
// moves on, the table is no longer served, and the next miss starts a new
// one.
//
// A Deadliner is safe for concurrent use and must not be copied.
type Deadliner struct {
	spec      Spec
	estimator *TailEstimator
	classes   *workload.ClassSet
	// slo and offset hold SLO_c and SLO_c − minSLO by class ID: Budget
	// and Key subtract the tail term from one of them.
	slo, offset []float64
	minSLO      float64

	table atomic.Pointer[tailTable]
	mu    sync.Mutex // serializes table writers; readers never take it
}

// tailTable holds the tail terms computed at one estimator epoch. Its
// shape and epoch never change once it is published; an entry changes
// exactly once, from unfilled to its tail term (an atomic store under
// Deadliner.mu), so a reader needs no lock: whatever it loads is either
// "not here yet" or the right answer. A table that must widen, or whose
// epoch has passed, is replaced, not edited.
type tailTable struct {
	epoch uint64          // estimator epoch the entries were computed at
	rows  int             // one row per class
	cols  int             // entries per row: fanouts 1..cols
	x     []atomic.Uint64 // row-major, encoded by entryOf; 0 marks an entry not computed yet
}

// entryOf encodes a tail term as a table entry: its bits XOR a NaN's, so
// that the zeroed memory a new table starts as reads "not computed yet"
// everywhere. No tail term encodes to 0 — that would be the NaN itself,
// and a NaN is answered per call, never stored. tailOf decodes.
func entryOf(x float64) uint64 { return math.Float64bits(x) ^ nanBits }
func tailOf(e uint64) float64  { return math.Float64frombits(e ^ nanBits) }

const nanBits = 0x7ff8_0000_0000_0001

// maxTableFanout bounds the table's width, and with it what a fanout
// arriving over the wire can make a miss allocate. Larger fanouts are
// legal; they are computed on every call instead of cached.
const maxTableFanout = 1 << 16

// NewDeadliner builds the deadline calculator for the given policy. The
// estimator may be nil for DeadlineNone policies; classes are always
// required (PRIQ reads class IDs, and budget reporting reads SLOs).
func NewDeadliner(spec Spec, estimator *TailEstimator, classes *workload.ClassSet) (*Deadliner, error) {
	if classes == nil {
		return nil, fmt.Errorf("core: deadliner needs a class set")
	}
	if spec.Deadline != DeadlineNone && estimator == nil {
		return nil, fmt.Errorf("core: policy %s needs a tail estimator", spec.Name)
	}
	d := &Deadliner{spec: spec, estimator: estimator, classes: classes, minSLO: math.Inf(1)}
	for _, c := range classes.Classes() {
		d.slo = append(d.slo, c.SLOMs)
		d.minSLO = min(d.minSLO, c.SLOMs)
	}
	for _, slo := range d.slo {
		d.offset = append(d.offset, slo-d.minSLO)
	}
	return d, nil
}

// Spec returns the policy this deadliner serves.
func (d *Deadliner) Spec() Spec { return d.spec }

// MinSLO returns the tightest class SLO, the constant Key leaves out of
// every key.
func (d *Deadliner) MinSLO() float64 { return d.minSLO }

// Budget returns the task pre-dequeuing time budget T_b(x_p^SLO, kf) for a
// query of the given class and fanout (Eqn. 6):
//
//	DeadlineNone:      +Inf (deadline ignored by the queue discipline)
//	DeadlineSLO:       x_p^SLO
//	DeadlineSLOFanout: x_p^SLO - x_p^u(kf)
//
// A negative budget is legal: it means the SLO is unreachable even with
// zero queuing for this fanout; EDF then simply schedules the task as
// maximally urgent.
//
//tg:hotpath
func (d *Deadliner) Budget(classID, fanout int) (float64, error) {
	x, err := d.tail(classID, fanout)
	if err != nil {
		return 0, err
	}
	return d.slo[classID] - x, nil
}

// Key returns the EDF key t0 + ((SLO_c − MinSLO) − x) for a query
// arriving at t0: its deadline less MinSLO, a constant of the Deadliner.
// A constant cannot change an EDF order, and leaving it out makes the
// key exact where it matters: with one class SLO_c − MinSLO is exactly
// 0, so the key fl(t0 − x) is the same bits under every SLO. Whoever
// needs the absolute deadline adds MinSLO back.
//
//tg:hotpath
func (d *Deadliner) Key(t0 float64, classID, fanout int) (float64, error) {
	x, err := d.tail(classID, fanout)
	if err != nil {
		return 0, err
	}
	return t0 + (d.offset[classID] - x), nil
}

// tail returns the tail term x for a class and fanout, from the table if
// it holds it. A nil error means classID is a valid index into slo and
// offset.
//
//tg:hotpath
func (d *Deadliner) tail(classID, fanout int) (float64, error) {
	if x, ok := d.lookup(classID, fanout); ok {
		return x, nil
	}
	return d.fill(classID, fanout)
}

// column maps a fanout to its table column. Only the fanout rule's
// tail terms depend on the fanout; the other rules keep one column.
//
//tg:hotpath
func (d *Deadliner) column(fanout int) int {
	if d.spec.Deadline != DeadlineSLOFanout {
		return 0
	}
	return fanout - 1
}

// lookup is the hit path: the current table, if it was computed at the
// estimator's current epoch and holds the entry.
//
//tg:hotpath
func (d *Deadliner) lookup(classID, fanout int) (float64, bool) {
	t := d.table.Load()
	if t == nil || t.epoch != d.estimator.Epoch() {
		return 0, false
	}
	col := d.column(fanout)
	if uint(col) >= uint(t.cols) || uint(classID) >= uint(t.rows) {
		return 0, false
	}
	e := t.x[classID*t.cols+col].Load()
	return tailOf(e), e != 0
}

// fill is the miss handler: it computes one tail term and stores it in
// the table, first replacing the table if its epoch has passed or it is
// too narrow. Errors (bad class, fanout < 1) and fanouts past
// maxTableFanout are answered without touching the table.
func (d *Deadliner) fill(classID, fanout int) (float64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if x, ok := d.lookup(classID, fanout); ok {
		return x, nil // another goroutine filled it while this one waited
	}
	// The epoch is read before the quantile: if an observation lands in
	// between, the entry goes into a table stamped with the older epoch
	// and the next lookup misses again rather than serving a
	// pre-observation value as current.
	epoch := d.estimator.Epoch()
	x, err := d.compute(classID, fanout)
	col := d.column(fanout)
	if err != nil || col >= maxTableFanout || math.IsNaN(x) {
		return x, err
	}
	t := d.table.Load()
	replace := t == nil || t.epoch != epoch || col >= t.cols
	if replace {
		t = d.nextTable(t, epoch, col)
	}
	t.x[classID*t.cols+col].Store(entryOf(x))
	if replace {
		d.table.Store(t)
	}
	return x, nil
}

// nextTable returns an empty table for epoch wide enough for column col,
// carrying over old's entries if they are of the same epoch. A table
// starts as wide as the cluster — in the simulator a query cannot fan
// out wider, so it is never replaced within an epoch — and doubles when
// a wider fanout does turn up (tgd's estimator models one server while
// its fanouts run to MaxFanout). The width outlives an epoch: the
// fanouts in use do not change with it.
func (d *Deadliner) nextTable(old *tailTable, epoch uint64, col int) *tailTable {
	cols := 1
	if d.spec.Deadline == DeadlineSLOFanout {
		cols = min(d.estimator.Servers(), maxTableFanout)
	}
	if old != nil {
		cols = max(cols, old.cols)
	}
	if col >= cols {
		cols = min(max(col+1, 2*cols), maxTableFanout)
	}
	t := &tailTable{epoch: epoch, rows: len(d.slo), cols: cols}
	t.x = make([]atomic.Uint64, t.rows*cols)
	if old != nil && old.epoch == epoch {
		for r := 0; r < t.rows; r++ {
			for c := 0; c < old.cols; c++ {
				t.x[r*cols+c].Store(old.x[r*old.cols+c].Load())
			}
		}
	}
	return t
}

// compute evaluates the deadline rule's tail term directly, with no
// table involved: −Inf for DeadlineNone (an infinite budget), 0 for
// DeadlineSLO, x_p^u(kf) for DeadlineSLOFanout.
func (d *Deadliner) compute(classID, fanout int) (float64, error) {
	cls, err := d.classes.Class(classID)
	if err != nil {
		return 0, err
	}
	switch d.spec.Deadline {
	case DeadlineNone:
		return math.Inf(-1), nil
	case DeadlineSLO:
		return 0, nil
	case DeadlineSLOFanout:
		return d.estimator.XPuFanout(cls.Percentile, fanout)
	default:
		return 0, fmt.Errorf("core: unknown deadline rule %d", d.spec.Deadline)
	}
}

// BudgetServers is Budget using the actual per-query server set instead of
// the homogeneous fanout shortcut — the heterogeneous (testbed) path.
func (d *Deadliner) BudgetServers(classID int, servers []int) (float64, error) {
	cls, err := d.classes.Class(classID)
	if err != nil {
		return 0, err
	}
	switch d.spec.Deadline {
	case DeadlineNone:
		return math.Inf(1), nil
	case DeadlineSLO:
		return cls.SLOMs, nil
	case DeadlineSLOFanout:
		xpu, err := d.estimator.XPuServers(cls.Percentile, servers)
		if err != nil {
			return 0, err
		}
		return cls.SLOMs - xpu, nil
	default:
		return 0, fmt.Errorf("core: unknown deadline rule %d", d.spec.Deadline)
	}
}

// Deadline returns tD = t0 + T_b for a query arriving at t0 (Eqn. 6).
//
//tg:hotpath
func (d *Deadliner) Deadline(t0 float64, classID, fanout int) (float64, error) {
	b, err := d.Budget(classID, fanout)
	if err != nil {
		return 0, err
	}
	return t0 + b, nil
}

// DeadlineServers is Deadline with an explicit server set.
func (d *Deadliner) DeadlineServers(t0 float64, classID int, servers []int) (float64, error) {
	b, err := d.BudgetServers(classID, servers)
	if err != nil {
		return 0, err
	}
	return t0 + b, nil
}
