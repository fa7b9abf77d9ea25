// Package policy implements the task queue disciplines compared in the
// paper: FIFO, PRIQ (strict class priority), and EDF (earliest-deadline-
// first, the queue behind both T-EDFQ and TF-EDFQ — the two differ only in
// how the deadline is computed, which is the job of internal/core's
// deadline estimators). LIFO and SJF are included as ablation baselines.
//
// All queues order deterministically: ties break by enqueue sequence, so
// simulations are reproducible. All queues are allocation-free in steady
// state: FIFO/PRIQ use ring buffers, LIFO a stack, and EDF/SJF a
// value-receiver slice heap with hand-specialized sift-up/sift-down —
// once warm, Push and Pop perform zero heap allocations.
package policy

import (
	"fmt"
)

// Task is one queued task. The scheduling-relevant keys are computed by
// the dispatcher before Push; queues only read them.
type Task struct {
	QueryID  int64
	Index    int     // task index within its query (0..kf-1)
	Server   int     // destination task server
	Class    int     // service class ID (0 = highest priority for PRIQ)
	Arrival  float64 // query arrival time t0 (ms)
	Deadline float64 // task queuing deadline tD (ms), or tD less a constant of the run; consumed by EDF
	Enqueued float64 // time the task entered the queue (ms)
	Dequeued float64 // time the task left the queue for service (ms); set by the dispatcher
	Service  float64 // sampled service time (ms); consumed by SJF only
	// Payload carries transport-specific data (e.g. the live testbed's
	// HTTP request body) opaque to the queue disciplines.
	Payload any
	// Hedge links the task to its duplicate when the dispatcher hedges
	// it (see HedgeState); nil for unhedged tasks.
	Hedge *HedgeState
	key   float64 // ordering key snapshotted at Push (EDF/SJF)
	seq   uint64  // assigned by the queue at Push for tie-breaking
}

// TaskPool is a freelist of Tasks for a single-goroutine owner (one
// simulation run). Get returns a zeroed task; Put zeroes the task before
// listing it so no stale query data or payload survives into the next
// borrower, and so released payloads become collectable immediately.
// The zero value is ready to use.
type TaskPool struct {
	free []*Task
}

// Get returns a task from the pool, allocating only when empty.
func (p *TaskPool) Get() *Task {
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return t
	}
	return new(Task)
}

// Put zeroes t and returns it to the pool. Putting a task still held by
// a queue is a caller bug; nil is ignored.
func (p *TaskPool) Put(t *Task) {
	if t == nil {
		return
	}
	*t = Task{}
	p.free = append(p.free, t)
}

// Queue is a task queue discipline. Implementations are not safe for
// concurrent use; the simulator is single-threaded and the live testbed
// locks around them.
type Queue interface {
	// Push inserts a task.
	Push(t *Task)
	// Pop removes and returns the highest-priority task, or nil if empty.
	Pop() *Task
	// Peek returns the highest-priority task without removing it, or nil.
	Peek() *Task
	// Len returns the number of queued tasks.
	Len() int
	// Reset empties the queue and restarts its tie-breaking sequence,
	// keeping allocated capacity. A reset queue behaves exactly like a
	// freshly constructed one.
	Reset()
}

// Kind names a queue discipline.
type Kind string

// Queue disciplines.
const (
	FIFO Kind = "fifo" // first-in-first-out
	PRIQ Kind = "priq" // strict class priority, FIFO within a class
	EDF  Kind = "edf"  // earliest Deadline first
	LIFO Kind = "lifo" // last-in-first-out (ablation)
	SJF  Kind = "sjf"  // shortest Service first (ablation)
)

// Kinds lists all available disciplines.
func Kinds() []Kind { return []Kind{FIFO, PRIQ, EDF, LIFO, SJF} }

// New returns an empty queue of the given kind.
func New(k Kind) (Queue, error) {
	switch k {
	case FIFO:
		return &fifoQueue{}, nil
	case PRIQ:
		return &priQueue{}, nil
	case EDF:
		return &keyQueue{kind: keyDeadline}, nil
	case LIFO:
		return &lifoQueue{}, nil
	case SJF:
		return &keyQueue{kind: keyService}, nil
	default:
		return nil, fmt.Errorf("policy: unknown queue kind %q", k)
	}
}

// Observed decorates a Queue with a depth callback, invoked after every
// depth-changing operation with the new length. It feeds the obs plane's
// queue-depth gauges and counters without teaching the disciplines about
// metrics; dispatchers wrap queues only when observability is enabled, so
// the unwrapped hot path keeps its zero-allocation guarantee. The wrapper
// inherits the wrapped queue's (lack of) concurrency safety.
type Observed struct {
	Queue
	OnDepth func(depth int)
}

// Push inserts a task and reports the new depth.
func (o Observed) Push(t *Task) {
	o.Queue.Push(t)
	o.OnDepth(o.Queue.Len())
}

// Pop removes the highest-priority task, reporting the new depth when one
// was removed.
func (o Observed) Pop() *Task {
	t := o.Queue.Pop()
	if t != nil {
		o.OnDepth(o.Queue.Len())
	}
	return t
}

// Reset empties the queue and reports depth zero.
func (o Observed) Reset() {
	o.Queue.Reset()
	o.OnDepth(0)
}

// fifoQueue is a ring buffer with power-of-two capacity: Push and Pop
// are O(1) with no element movement, and steady-state operation never
// allocates (growth only linearizes once per capacity doubling).
type fifoQueue struct {
	buf  []*Task // len(buf) is the capacity, a power of two (or zero)
	head int     // index of the oldest task
	n    int     // queued count
	seq  uint64
}

// Push enqueues one task, stamping its FIFO sequence.
//
//tg:hotpath
func (q *fifoQueue) Push(t *Task) {
	q.seq++
	t.seq = q.seq
	q.push(t)
}

// push inserts without assigning a sequence (used by priQueue, which
// owns the cross-class sequence counter).
//
//tg:hotpath
func (q *fifoQueue) push(t *Task) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = t
	q.n++
}

// grow doubles the ring, linearizing the live window to the front.
func (q *fifoQueue) grow() {
	newCap := len(q.buf) * 2
	if newCap == 0 {
		newCap = 16
	}
	buf := make([]*Task, newCap)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}

// Pop dequeues the oldest task, or nil when empty.
//
//tg:hotpath
func (q *fifoQueue) Pop() *Task {
	if q.n == 0 {
		return nil
	}
	t := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return t
}

func (q *fifoQueue) Peek() *Task {
	if q.n == 0 {
		return nil
	}
	return q.buf[q.head]
}

func (q *fifoQueue) Len() int { return q.n }

func (q *fifoQueue) Reset() {
	for i := 0; i < q.n; i++ {
		q.buf[(q.head+i)&(len(q.buf)-1)] = nil
	}
	q.head = 0
	q.n = 0
	q.seq = 0
}

// lifoQueue is a stack.
type lifoQueue struct {
	buf []*Task
	seq uint64
}

// Push stacks one task.
//
//tg:hotpath
func (q *lifoQueue) Push(t *Task) {
	q.seq++
	t.seq = q.seq
	q.buf = append(q.buf, t)
}

// Pop unstacks the newest task, or nil when empty.
//
//tg:hotpath
func (q *lifoQueue) Pop() *Task {
	n := len(q.buf)
	if n == 0 {
		return nil
	}
	t := q.buf[n-1]
	q.buf[n-1] = nil
	q.buf = q.buf[:n-1]
	return t
}

func (q *lifoQueue) Peek() *Task {
	if len(q.buf) == 0 {
		return nil
	}
	return q.buf[len(q.buf)-1]
}

func (q *lifoQueue) Len() int { return len(q.buf) }

func (q *lifoQueue) Reset() {
	for i := range q.buf {
		q.buf[i] = nil
	}
	q.buf = q.buf[:0]
	q.seq = 0
}

// priQueue keeps one ring-buffer FIFO per class with strict priority:
// class 0 drains before class 1, and so on (the paper's PRIQ).
type priQueue struct {
	perClass []*fifoQueue // index = class ID; grown on demand
	n        int
	seq      uint64
}

// Push enqueues into the task's class ring, growing the class table on
// first sight of a new class.
//
//tg:hotpath
func (q *priQueue) Push(t *Task) {
	c := t.Class
	if c < 0 {
		c = 0
	}
	for len(q.perClass) <= c {
		q.perClass = append(q.perClass, &fifoQueue{}) //tg:cold once per class, never steady-state
	}
	q.seq++
	t.seq = q.seq
	q.perClass[c].push(t)
	q.n++
}

// Pop drains the lowest-numbered non-empty class.
//
//tg:hotpath
func (q *priQueue) Pop() *Task {
	for _, f := range q.perClass {
		if f.n > 0 {
			q.n--
			return f.Pop()
		}
	}
	return nil
}

func (q *priQueue) Peek() *Task {
	for _, f := range q.perClass {
		if f.n > 0 {
			return f.Peek()
		}
	}
	return nil
}

func (q *priQueue) Len() int { return q.n }

func (q *priQueue) Reset() {
	for _, f := range q.perClass {
		f.Reset()
	}
	q.n = 0
	q.seq = 0
}

// keyKind selects which Task field a keyQueue orders by.
type keyKind uint8

const (
	keyDeadline keyKind = iota // EDF
	keyService                 // SJF
)

// keyQueue is a binary min-heap over (key, seq), where key is the
// ordering field snapshotted into the task at Push. The heap is a plain
// slice with hand-specialized sift-up/sift-down — no container/heap
// interface boxing, no per-operation allocation. Pop order is identical
// to the previous container/heap version: (key, seq) is a total order
// (seq is unique), so every valid heap yields the same pop sequence.
type keyQueue struct {
	items []*Task
	kind  keyKind
	seq   uint64
}

// before reports whether a must pop before b.
func before(a, b *Task) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// Push inserts one task by its snapshotted ordering key.
//
//tg:hotpath
func (q *keyQueue) Push(t *Task) {
	q.seq++
	t.seq = q.seq
	if q.kind == keyDeadline {
		t.key = t.Deadline
	} else {
		t.key = t.Service
	}
	q.items = append(q.items, t)
	// Sift up.
	s := q.items
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// Pop removes the minimum-(key, seq) task, or nil when empty.
//
//tg:hotpath
func (q *keyQueue) Pop() *Task {
	s := q.items
	if len(s) == 0 {
		return nil
	}
	min := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nil
	q.items = s[:n]
	s = q.items
	// Sift down.
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && before(s[right], s[left]) {
			least = right
		}
		if !before(s[least], s[i]) {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return min
}

func (q *keyQueue) Peek() *Task {
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0]
}

func (q *keyQueue) Len() int { return len(q.items) }

func (q *keyQueue) Reset() {
	for i := range q.items {
		q.items[i] = nil
	}
	q.items = q.items[:0]
	q.seq = 0
}
