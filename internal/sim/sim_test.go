package sim

import (
	"testing"
	"testing/quick"
)

// pending counts the engine's scheduled events.
func pending(e *Engine) int {
	if e.heapRef {
		return len(e.events)
	}
	return e.w.n
}

func TestScheduleAndRunOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	mustSchedule := func(at Time, id int) {
		t.Helper()
		if err := e.Schedule(at, func() { order = append(order, id) }); err != nil {
			t.Fatalf("Schedule: %v", err)
		}
	}
	mustSchedule(3, 3)
	mustSchedule(1, 1)
	mustSchedule(2, 2)
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("execution order = %v, want [1 2 3]", order)
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %v, want 3", e.Now())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		if err := e.Schedule(5, func() { order = append(order, i) }); err != nil {
			t.Fatalf("Schedule: %v", err)
		}
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestScheduleInPastFails(t *testing.T) {
	e := NewEngine()
	if err := e.Schedule(10, func() {}); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	e.Run()
	if err := e.Schedule(5, func() {}); err == nil {
		t.Error("Schedule in the past succeeded, want error")
	}
	if err := e.ScheduleCallAfter(-1, func(any, float64) {}, nil, 0); err == nil {
		t.Error("ScheduleCallAfter negative delay succeeded, want error")
	}
	if err := e.Schedule(20, nil); err == nil {
		t.Error("Schedule nil callback succeeded, want error")
	}
}

func TestScheduleAfter(t *testing.T) {
	e := NewEngine()
	var at Time
	if err := e.Schedule(10, func() {
		if err := e.ScheduleCallAfter(5, func(any, float64) { at = e.Now() }, nil, 0); err != nil {
			t.Errorf("nested ScheduleCallAfter: %v", err)
		}
	}); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	e.Run()
	if at != 15 {
		t.Errorf("nested event ran at %v, want 15", at)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	var count int
	for i := 1; i <= 10; i++ {
		i := i
		if err := e.Schedule(Time(i), func() {
			count++
			if i == 3 {
				e.Stop()
			}
		}); err != nil {
			t.Fatalf("Schedule: %v", err)
		}
	}
	e.Run()
	if count != 3 {
		t.Errorf("executed %d events before Stop, want 3", count)
	}
	if n := pending(e); n != 7 {
		t.Errorf("%d events pending after Stop, want 7", n)
	}
	// Run resumes after Stop.
	e.Run()
	if count != 10 {
		t.Errorf("executed %d total events, want 10", count)
	}
}

func TestStepOnEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("Step on empty engine returned true")
	}
}

// Property: the specialized value heap pops in exactly (at, seq) order —
// the same total order container/heap produced — including heavy ties.
func TestEventHeapPopOrderProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		var h eventHeap
		for seq, r := range raw {
			// Only 8 distinct times, forcing frequent ties.
			h.push(&event{at: Time(r % 8), seq: uint64(seq)})
		}
		var prevAt Time = -1
		var prevSeq uint64
		for len(h) > 0 {
			ev := h[0]
			h.drop()
			if ev.at < prevAt || (ev.at == prevAt && ev.seq <= prevSeq) {
				return false
			}
			prevAt, prevSeq = ev.at, ev.seq
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Errorf("heap pop order property violated: %v", err)
	}
}

// Property: events always execute in non-decreasing time order regardless
// of scheduling order.
func TestEventOrderProperty(t *testing.T) {
	prop := func(times []uint16) bool {
		e := NewEngine()
		var executed []Time
		for _, raw := range times {
			at := Time(raw)
			if err := e.Schedule(at, func() { executed = append(executed, at) }); err != nil {
				return false
			}
		}
		e.Run()
		if len(executed) != len(times) {
			return false
		}
		for i := 1; i < len(executed); i++ {
			if executed[i] < executed[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("event ordering property violated: %v", err)
	}
}

// Closure-form Schedule and handler-form ScheduleCall share one event
// representation and one sequence counter, so on either engine a mix of
// the two executes in (time, schedule order): ties go to whichever form
// was scheduled first, including events scheduled from inside a running
// event at the current time.
func TestScheduleFormsInterleaveInOrder(t *testing.T) {
	for _, eng := range []struct {
		name string
		mk   func() *Engine
	}{{"wheel", NewEngine}, {"heap", NewHeapEngine}} {
		e := eng.mk()
		type stamp struct {
			at  Time
			seq int
		}
		var scheduled, executed []stamp
		payload := new(int)
		var schedule func(at Time, spawn bool)
		schedule = func(at Time, spawn bool) {
			s := stamp{at, len(scheduled)}
			scheduled = append(scheduled, s)
			run := func() {
				if e.Now() != s.at {
					t.Errorf("%s: event %d ran at %v, scheduled for %v", eng.name, s.seq, e.Now(), s.at)
				}
				executed = append(executed, s)
				if spawn { // a tie with the clock, in the other form, and a later one
					schedule(e.Now(), false)
					schedule(e.Now()+0.5, false)
				}
			}
			var err error
			if s.seq%3 == 1 || s.seq%7 == 0 {
				err = e.Schedule(at, run)
			} else {
				err = e.ScheduleCall(at, func(arg any, val float64) {
					if arg.(*int) != payload || val != float64(s.seq) {
						t.Errorf("%s: event %d got payload (%v, %v)", eng.name, s.seq, arg, val)
					}
					run()
				}, payload, float64(s.seq))
			}
			if err != nil {
				t.Fatalf("%s: schedule %d at %v: %v", eng.name, s.seq, at, err)
			}
		}
		// Only 6 distinct times across wheel levels 0-2 and the overflow
		// heap, so most events tie with one of the other form.
		times := []Time{0, 0.25, 0.25 + 1.0/128, 3, 700, 400000}
		for i := 0; i < 120; i++ {
			schedule(times[(i*5)%len(times)], i%4 == 0)
		}
		e.Run()
		if len(executed) != len(scheduled) {
			t.Fatalf("%s: executed %d of %d events", eng.name, len(executed), len(scheduled))
		}
		for i := 1; i < len(executed); i++ {
			a, b := executed[i-1], executed[i]
			if a.at > b.at || (a.at == b.at && a.seq >= b.seq) {
				t.Fatalf("%s: event (at %v, seq %d) ran before (at %v, seq %d)", eng.name, a.at, a.seq, b.at, b.seq)
			}
		}
	}
}
