package sim

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// driveScript runs an identical op sequence against an engine and
// records every executed event as (id, execution time) plus every
// schedule error. Feeding the same script to a wheel engine and a heap
// engine must produce identical recordings — the differential oracle
// shared by the property test and the fuzz target below.
func driveScript(e *Engine, data []byte) (ids []float64, times []Time, errs []int) {
	h := func(_ any, val float64) {
		ids = append(ids, val)
		times = append(times, e.Now())
	}
	id := 0.0
	sched := func(op int, at Time) {
		id++
		if err := e.ScheduleCall(at, h, nil, id); err != nil {
			errs = append(errs, op)
		}
	}
	for j := 0; j+1 < len(data); j += 2 {
		op := j / 2
		p := Time(data[j+1])
		switch data[j] % 10 {
		case 0: // sub-tick to near-future: same-tick batches, level 0
			sched(op, e.Now()+p/16)
		case 1: // up to 255 ms ahead: levels 1-2
			sched(op, e.Now()+p)
		case 2: // far future: top level and overflow heap
			sched(op, e.Now()+p*4096)
		case 3: // exact tie with the clock
			sched(op, e.Now())
		case 4:
			e.Step()
		case 5: // stop with the clock behind pending events (clamp path)
			e.RunBefore(e.Now() + p/4)
		case 6: // long window: the peek crosses wheel levels
			e.RunBefore(e.Now() + p*64)
		case 7: // +Inf and NaN guard territory
			if data[j+1]%2 == 0 {
				sched(op, math.Inf(1))
			} else {
				sched(op, e.Now()+p*1e9)
			}
		case 8: // past-time schedules must error identically
			sched(op, e.Now()-1-p)
		case 9: // engine reuse
			if data[j+1] == 255 {
				e.Reset()
			} else {
				sched(op, e.Now()+p/2)
			}
		}
	}
	e.Run()
	return ids, times, errs
}

func sameRecording(aIDs, bIDs []float64, aT, bT []Time, aE, bE []int) bool {
	if len(aIDs) != len(bIDs) || len(aE) != len(bE) {
		return false
	}
	for i := range aIDs {
		// Bitwise time equality, including +Inf.
		if aIDs[i] != bIDs[i] || math.Float64bits(aT[i]) != math.Float64bits(bT[i]) {
			return false
		}
	}
	for i := range aE {
		if aE[i] != bE[i] {
			return false
		}
	}
	return true
}

// Property: random op scripts — schedules across every wheel level, far
// overflow, exact ties, past-time errors, partial runs, and Reset reuse
// — execute identically on the timing wheel and the reference heap.
func TestWheelVsHeapPopOrderProperty(t *testing.T) {
	prop := func(data []byte) bool {
		wIDs, wT, wE := driveScript(NewEngine(), data)
		hIDs, hT, hE := driveScript(NewHeapEngine(), data)
		return sameRecording(wIDs, hIDs, wT, hT, wE, hE)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Errorf("wheel and heap diverged: %v", err)
	}
}

func FuzzWheelVsHeapPopOrder(f *testing.F) {
	f.Add([]byte{0, 7, 3, 0, 4, 0, 1, 200, 2, 255, 6, 90})
	f.Add([]byte{5, 40, 0, 1, 9, 255, 0, 3, 8, 10, 7, 2, 7, 3})
	f.Add(bytes.Repeat([]byte{3, 0}, 80)) // one giant same-time batch
	f.Add([]byte{2, 255, 2, 254, 4, 0, 0, 16, 5, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		wIDs, wT, wE := driveScript(NewEngine(), data)
		hIDs, hT, hE := driveScript(NewHeapEngine(), data)
		if !sameRecording(wIDs, hIDs, wT, hT, wE, hE) {
			t.Fatalf("wheel and heap diverged on %v:\nwheel ids=%v times=%v errs=%v\nheap  ids=%v times=%v errs=%v",
				data, wIDs, wT, wE, hIDs, hT, hE)
		}
	})
}

// Regression for the clamp path: RunBefore leaves the clock behind the
// next pending event, but peeking that event may advance the wheel
// cursor past times that are still schedulable. A later schedule in
// that gap must pop before the peeked event.
func TestWheelScheduleBehindCursor(t *testing.T) {
	e := NewEngine()
	var order []Time
	h := func(_ any, _ float64) { order = append(order, e.Now()) }
	for _, at := range []Time{1, 100} {
		if err := e.ScheduleCall(at, h, nil, 0); err != nil {
			t.Fatalf("ScheduleCall(%v): %v", at, err)
		}
	}
	e.RunBefore(50) // executes t=1; peeking t=100 moves the cursor ahead
	if e.Now() != 1 {
		t.Fatalf("Now() = %v after RunBefore, want 1", e.Now())
	}
	// t=10 is ahead of the clock but behind the advanced cursor.
	if err := e.ScheduleCall(10, h, nil, 0); err != nil {
		t.Fatalf("ScheduleCall(10): %v", err)
	}
	e.Run()
	want := []Time{1, 10, 100}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Errorf("execution times = %v, want %v", order, want)
	}
}

// Far-future and infinite deadlines route through the overflow heap and
// still pop in (at, seq) order.
func TestWheelFarFutureOrder(t *testing.T) {
	e := NewEngine()
	var order []Time
	h := func(_ any, _ float64) { order = append(order, e.Now()) }
	ats := []Time{math.Inf(1), 1e9, 0.5, 1 << 30, 2, math.Inf(1), 3e6}
	for _, at := range ats {
		if err := e.ScheduleCall(at, h, nil, 0); err != nil {
			t.Fatalf("ScheduleCall(%v): %v", at, err)
		}
	}
	e.Run()
	want := []Time{0.5, 2, 3e6, 1e9, 1 << 30, math.Inf(1), math.Inf(1)}
	if len(order) != len(want) {
		t.Fatalf("executed %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order[%d] = %v, want %v", i, order[i], want[i])
		}
	}
}

// Reset must fully clear every wheel level and the overflow heap so a
// reused engine behaves exactly like a fresh one.
func TestWheelResetReuse(t *testing.T) {
	run := func(e *Engine) []Time {
		var order []Time
		h := func(_ any, _ float64) { order = append(order, e.Now()) }
		for _, at := range []Time{7, 0.25, 1e8, 7, 300} {
			if err := e.ScheduleCall(at, h, nil, 0); err != nil {
				t.Fatalf("ScheduleCall(%v): %v", at, err)
			}
		}
		e.Run()
		return order
	}
	e := NewEngine()
	// Leave events at several levels pending, then reset mid-flight.
	for _, at := range []Time{1, 50, 4000, 1e7, math.Inf(1)} {
		if err := e.ScheduleCall(at, func(any, float64) {}, nil, 0); err != nil {
			t.Fatalf("ScheduleCall(%v): %v", at, err)
		}
	}
	e.Step()
	e.Reset()
	if pending(e) != 0 || e.Now() != 0 {
		t.Fatalf("after Reset: pending=%d Now=%v, want 0 and 0", pending(e), e.Now())
	}
	got := run(e)
	want := run(NewEngine())
	if len(got) != len(want) {
		t.Fatalf("reused engine executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("reused engine order[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// Drain must hand over exactly the payloads of the events still pending
// — across the current batch (partly consumed), every wheel level, the
// far heap and closures — and leave an empty engine that runs new
// events normally, on the wheel and the reference heap alike.
func TestDrainVisitsEveryPendingPayload(t *testing.T) {
	for name, e := range map[string]*Engine{"wheel": NewEngine(), "heap": NewHeapEngine()} {
		ran := map[float64]bool{}
		h := func(_ any, val float64) { ran[val] = true }
		times := []Time{0.5, 0.5, 0.5, 0.51, 3, 90, 5000, 2e6, 1e9, math.Inf(1)}
		for i, at := range times {
			if err := e.ScheduleCall(at, h, &times[i], float64(i)); err != nil {
				t.Fatalf("%s: ScheduleCall(%v): %v", name, at, err)
			}
		}
		if err := e.Schedule(4, func() {}); err != nil {
			t.Fatalf("%s: Schedule: %v", name, err)
		}
		e.Step() // consume part of the 0.5 ms batch
		e.Step()
		visited := map[float64]bool{}
		closures := 0
		e.Drain(func(arg any, val float64) {
			switch p := arg.(type) {
			case *Time:
				if *p != times[int(val)] {
					t.Errorf("%s: payload %v arrived with val %v", name, *p, val)
				}
				visited[val] = true
			case func():
				closures++
			default:
				t.Errorf("%s: unexpected payload %T", name, arg)
			}
		})
		for i := range times {
			if ran[float64(i)] == visited[float64(i)] {
				t.Errorf("%s: event %d ran=%v visited=%v, want exactly one", name, i, ran[float64(i)], visited[float64(i)])
			}
		}
		if closures != 1 || pending(e) != 0 {
			t.Errorf("%s: %d closures visited, %d events pending after Drain; want 1 and 0", name, closures, pending(e))
		}
		fired := false
		if err := e.ScheduleCallAfter(1, func(any, float64) { fired = true }, nil, 0); err != nil {
			t.Fatalf("%s: ScheduleCallAfter: %v", name, err)
		}
		e.Run()
		if !fired || pending(e) != 0 {
			t.Errorf("%s: engine after Drain did not run a new event", name)
		}
	}
}

// benchEngine measures the classic hold model on either queue: a
// standing population of events where each pop reschedules one event a
// pseudo-random near-future delay ahead — the simulator's steady-state
// access pattern.
func benchEngine(b *testing.B, e *Engine, population int) {
	b.ReportAllocs()
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() Time {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return Time(rng%1024) / 64 // 0 to 16 ms in 1/64 ms steps
	}
	var h Handler
	h = func(any, float64) {
		if err := e.ScheduleCallAfter(next(), h, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < population; i++ {
		if err := e.ScheduleCall(next(), h, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkEngineHoldWheel(b *testing.B) { benchEngine(b, NewEngine(), 4096) }
func BenchmarkEngineHoldHeap(b *testing.B)  { benchEngine(b, NewHeapEngine(), 4096) }
