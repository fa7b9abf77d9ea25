// Package sim is a minimal deterministic discrete-event simulation engine.
// It provides a virtual millisecond clock and an event queue with strict
// FIFO tie-breaking, which the cluster simulator builds the TailGuard
// query-processing model on. The queue is a hierarchical timing wheel
// (wheel.go) with O(1) amortized schedule/pop; NewHeapEngine selects the
// original binary heap, kept as the reference oracle — both produce the
// exact same (at, seq) pop order, so results are bit-identical.
//
// The engine is single-threaded by design: determinism (bit-for-bit
// reproducible experiments given a seed) matters more here than parallel
// speedup inside one run; whole runs are parallelized across cores by
// internal/parallel instead.
package sim

import (
	"fmt"
)

// Time is a point in simulated time, in milliseconds.
type Time = float64

// Handler is a pre-bound event callback that receives its payload as
// arguments instead of captured closure state. Scheduling through a
// Handler (ScheduleCall) is allocation-free when arg is a pointer: the
// event carries the handler value and payload inline, so the per-event
// closure allocation of Schedule disappears from the simulator's hot
// path. Bind method values once (h := r.onEvent) and reuse them; the
// method-value expression itself allocates.
type Handler func(arg any, val float64)

// event is one scheduled callback: a pre-bound handler with its payload.
// Closure-form Schedule uses the same representation (runClosure with the
// closure as arg), so the queues and the dispatch loop know one layout.
// An event is written once, into the slot or heap position it is filed
// at, and dispatched from there (DESIGN.md §14).
type event struct {
	at  Time
	seq uint64 // schedule order, breaks ties deterministically
	h   Handler
	arg any
	val float64
}

// runClosure is the handler behind Schedule: the closure is the payload.
func runClosure(arg any, _ float64) { arg.(func())() }

// eventHeap is a binary min-heap of events ordered by (time, sequence),
// stored by value with hand-specialized sift-up/sift-down. Scheduling
// an event is then a plain slice append — no per-event heap allocation
// and no container/heap interface boxing. (at, seq) is a total order,
// so any correct queue yields the same pop sequence; the heap serves as
// the timing wheel's far-future overflow level and, via NewHeapEngine,
// as the reference implementation the wheel is differentially tested
// against.
type eventHeap []event

// push files *ev: the hole opened at the end sifts up past every later
// event, then takes *ev — one copy of the event, however far it rises.
//
//tg:hotpath
func (h *eventHeap) push(ev *event) {
	s := append(*h, event{}) //tg:cold heap warm-up; capacity persists across Reset
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(ev, &s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = *ev
	*h = s
}

// drop removes the earliest event, h[0] (which callers read in place
// first): the hole at the root sifts down past every earlier event, then
// takes the displaced last element.
//
//tg:hotpath
func (h *eventHeap) drop() {
	s := *h
	n := len(s) - 1
	last := &s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && eventBefore(&s[right], &s[left]) {
			least = right
		}
		if !eventBefore(&s[least], last) {
			break
		}
		s[i] = s[least]
		i = least
	}
	if i < n {
		s[i] = *last
	}
	*last = event{} // release the callback and payload for GC
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine (timing-wheel event queue) or NewHeapEngine (reference
// binary heap — identical pop order, used as the differential oracle).
type Engine struct {
	now     Time
	seq     uint64
	w       wheel
	events  eventHeap // reference queue, used only when heapRef is set
	heapRef bool
	stopped bool
}

// NewEngine returns an engine with the clock at zero, backed by the
// hierarchical timing wheel.
func NewEngine() *Engine {
	return &Engine{}
}

// NewHeapEngine returns an engine backed by the original binary event
// heap. It executes the exact same event sequence as NewEngine — (at,
// seq) is a total order, so both queues admit only one pop order — and
// exists as the reference implementation for the wheel-vs-heap property
// tests and cluster's TestPerfSmokeWheelVsHeap equivalence gate.
func NewHeapEngine() *Engine {
	return &Engine{heapRef: true}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int {
	if e.heapRef {
		return len(e.events)
	}
	return e.w.n
}

// pushEvent files *ev into the engine's event queue.
//
//tg:hotpath
func (e *Engine) pushEvent(ev *event) {
	if e.heapRef {
		e.events.push(ev)
		return
	}
	e.w.schedule(ev)
}

// peekEvent returns the next event to execute without removing it, or
// nil when none is pending.
//
//tg:hotpath
func (e *Engine) peekEvent() *event {
	if e.heapRef {
		if len(e.events) == 0 {
			return nil
		}
		return &e.events[0]
	}
	return e.w.peek()
}

// dispatch executes ev, the event peekEvent just returned: its fields
// are read straight out of the queue's storage, the queue drops it, the
// clock advances and the handler runs (which may schedule freely — ev is
// not touched again).
//
//tg:hotpath
func (e *Engine) dispatch(ev *event) {
	at, h, arg, val := ev.at, ev.h, ev.arg, ev.val
	if e.heapRef {
		e.events.drop()
	} else {
		e.w.drop()
	}
	e.now = at
	h(arg, val)
}

// Schedule runs fn at absolute time at. Scheduling in the past (before
// Now) is a bookkeeping bug and returns an error.
func (e *Engine) Schedule(at Time, fn func()) error {
	if fn == nil {
		return fmt.Errorf("sim: schedule with nil callback")
	}
	return e.ScheduleCall(at, runClosure, fn, 0)
}

// ScheduleCall runs h(arg, val) at absolute time at. It is the
// allocation-free form of Schedule: the payload travels in the event
// itself rather than in a closure. Execution order relative to
// Schedule'd events follows the same (time, schedule order) rule.
func (e *Engine) ScheduleCall(at Time, h Handler, arg any, val float64) error {
	if at < e.now {
		return fmt.Errorf("sim: schedule at %v before now %v", at, e.now)
	}
	if h == nil {
		return fmt.Errorf("sim: schedule with nil handler")
	}
	e.seq++
	// Field by field: a composite literal is built in a temporary and
	// copied over with wide loads that stall on these narrow stores.
	var ev event
	ev.at, ev.seq, ev.h, ev.arg, ev.val = at, e.seq, h, arg, val
	e.pushEvent(&ev)
	return nil
}

// ScheduleCallAfter runs h(arg, val) after delay d (>= 0) from now.
func (e *Engine) ScheduleCallAfter(d Time, h Handler, arg any, val float64) error {
	if d < 0 {
		return fmt.Errorf("sim: negative delay %v", d)
	}
	return e.ScheduleCall(e.now+d, h, arg, val)
}

// ScheduleAfter runs fn after delay d (>= 0) from now.
func (e *Engine) ScheduleAfter(d Time, fn func()) error {
	if d < 0 {
		return fmt.Errorf("sim: negative delay %v", d)
	}
	return e.Schedule(e.now+d, fn)
}

// Step executes the earliest pending event, advancing the clock to it.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	ev := e.peekEvent()
	if ev == nil {
		return false
	}
	e.dispatch(ev)
	return true
}

// Run executes events until the queue is empty or Stop is called. The
// clock ends at the last executed event's time.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with time <= deadline, then sets the clock to
// deadline if it is ahead of the last event.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		ev := e.peekEvent()
		if ev == nil || ev.at > deadline {
			break
		}
		e.dispatch(ev)
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// RunBefore executes events with time strictly before limit, leaving
// later events queued. Unlike RunUntil it does not advance the clock to
// the limit: the clock stays at the last executed event, so events a
// shard coordinator delivers for the next window (all stamped >= limit)
// can never land in this engine's past. It is the building block of the
// conservative time-window protocol (ShardSet).
//
//tg:hotpath
func (e *Engine) RunBefore(limit Time) {
	e.stopped = false
	for !e.stopped {
		ev := e.peekEvent()
		if ev == nil || ev.at >= limit {
			break
		}
		e.dispatch(ev)
	}
}

// Stop makes the current Run/RunUntil return after the executing event
// completes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Drain empties the event queue without running anything, first passing
// each pending event's payload (the arg and val it was scheduled with)
// to visit. A caller that stopped a run early uses it to hand the objects
// its pending events own back to their pools. Events are visited in a
// fixed order for a given queue state; the clock is left where it is.
func (e *Engine) Drain(visit func(arg any, val float64)) {
	if e.heapRef {
		for i := range e.events {
			visit(e.events[i].arg, e.events[i].val)
			e.events[i] = event{}
		}
		e.events = e.events[:0]
		return
	}
	e.w.drain(visit)
}

// Reset returns the engine to its initial state (clock at zero, no
// pending events) while keeping the event queue's capacity — wheel slot
// slices, overflow heap, and reference heap alike — so a pooled engine
// can run successive simulations without reallocating.
func (e *Engine) Reset() {
	e.w.reset()
	for i := range e.events {
		e.events[i] = event{} // release callbacks and payloads for GC
	}
	e.events = e.events[:0]
	e.now = 0
	e.seq = 0
	e.stopped = false
}
