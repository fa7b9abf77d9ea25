package fault

import (
	"fmt"
	"sort"
	"sync/atomic"

	"tailguard/internal/parallel"
)

// Window is a half-open [Start, End) interval on the millisecond clock.
type Window struct {
	Start float64
	End   float64
}

// speedWin is a service window during which the server progresses at
// `speed` units of work per unit of time (1/Factor for slowdowns, 0 for
// stalls).
type speedWin struct {
	Window
	speed float64
}

// delayWin adds `delay` ms to every dispatch inside the window.
type delayWin struct {
	Window
	delay float64
}

// dropWin drops each dispatch inside the window with probability `prob`.
type dropWin struct {
	Window
	prob float64
}

// Engine compiles a validated Plan into per-server, start-sorted window
// tables. All lookups are pure functions of (server, sim time) except
// DropSend, which additionally advances a seeded per-server counter
// stream — so a run that issues the same sequence of sends sees the same
// sequence of drops, independent of wall time or goroutine interleaving.
//
// Every method is safe on a nil *Engine and behaves as "no faults",
// letting callers thread an optional engine without guards.
type Engine struct {
	seed    int64
	servers int
	hash    string

	slow  [][]speedWin // service slowdowns and stalls, merged
	crash [][]Window
	delay [][]delayWin
	drop  [][]dropWin

	// sends counts transport-drop coin flips per server. Atomic because
	// the saas transport flips concurrently; the simulator is
	// single-threaded and pays only an uncontended atomic add.
	sends []atomic.Uint64
}

// NewEngine validates plan against a cluster of `servers` servers and
// compiles it. A nil plan yields a nil engine (inject nothing).
func NewEngine(plan *Plan, servers int) (*Engine, error) {
	if plan == nil {
		return nil, nil
	}
	if err := plan.Validate(servers); err != nil {
		return nil, err
	}
	e := &Engine{
		seed:    plan.Seed,
		servers: servers,
		hash:    plan.Hash(),
		slow:    make([][]speedWin, servers),
		crash:   make([][]Window, servers),
		delay:   make([][]delayWin, servers),
		drop:    make([][]dropWin, servers),
		sends:   make([]atomic.Uint64, servers),
	}
	for _, f := range plan.Faults {
		lo, hi := f.Server, f.Server
		if f.Server == AllServers {
			lo, hi = 0, servers-1
		}
		w := Window{Start: f.StartMs, End: f.EndMs}
		for s := lo; s <= hi; s++ {
			switch f.Kind {
			case Slowdown:
				e.slow[s] = append(e.slow[s], speedWin{w, 1 / f.Factor})
			case Stall:
				e.slow[s] = append(e.slow[s], speedWin{w, 0})
			case Crash:
				e.crash[s] = append(e.crash[s], w)
			case TransportDelay:
				e.delay[s] = append(e.delay[s], delayWin{w, f.DelayMs})
			case TransportDrop:
				e.drop[s] = append(e.drop[s], dropWin{w, f.DropProb})
			}
		}
	}
	for s := 0; s < servers; s++ {
		sort.Slice(e.slow[s], func(i, j int) bool { return e.slow[s][i].Start < e.slow[s][j].Start })
		sort.Slice(e.crash[s], func(i, j int) bool { return e.crash[s][i].Start < e.crash[s][j].Start })
		sort.Slice(e.delay[s], func(i, j int) bool { return e.delay[s][i].Start < e.delay[s][j].Start })
		sort.Slice(e.drop[s], func(i, j int) bool { return e.drop[s][i].Start < e.drop[s][j].Start })
	}
	return e, nil
}

// MustEngine is NewEngine for canonical, compile-time-known plans.
func MustEngine(plan *Plan, servers int) *Engine {
	e, err := NewEngine(plan, servers)
	if err != nil {
		panic(fmt.Sprintf("fault: MustEngine: %v", err))
	}
	return e
}

// Servers returns the cluster size the engine was compiled for.
func (e *Engine) Servers() int {
	if e == nil {
		return 0
	}
	return e.servers
}

// Hash returns the compiled plan's fingerprint (see Plan.Hash), or the
// nil-plan fingerprint for a nil engine.
func (e *Engine) Hash() string {
	if e == nil {
		return (*Plan)(nil).Hash()
	}
	return e.hash
}

// Stretch returns the wall duration (in sim ms) server s needs to finish
// `work` ms of nominal service starting at sim time `start`, integrating
// the piecewise-constant service speed over the slowdown/stall windows.
// Outside all windows speed is 1 and Stretch(s, t, w) == w.
func (e *Engine) Stretch(s int, start, work float64) float64 {
	if e == nil || work <= 0 || s < 0 || s >= e.servers {
		return work
	}
	t := start
	remaining := work
	for _, w := range e.slow[s] {
		if remaining <= 0 {
			break
		}
		if w.End <= t {
			continue
		}
		if w.Start > t {
			gap := w.Start - t
			if remaining <= gap {
				t += remaining
				remaining = 0
				break
			}
			remaining -= gap
			t = w.Start
		}
		if w.speed <= 0 {
			// Stall: the clock runs, the work doesn't.
			t = w.End
			continue
		}
		capacity := (w.End - t) * w.speed
		if remaining <= capacity {
			t += remaining / w.speed
			remaining = 0
			break
		}
		remaining -= capacity
		t = w.End
	}
	t += remaining
	return t - start
}

// StretchExtra returns the added latency Stretch injects beyond the
// nominal work: Stretch(s, start, work) - work, clamped at 0.
func (e *Engine) StretchExtra(s int, start, work float64) float64 {
	extra := e.Stretch(s, start, work) - work
	if extra < 0 {
		return 0
	}
	return extra
}

// CrashedAt reports whether server s is down (crashed, not yet
// restarted) at sim time t.
func (e *Engine) CrashedAt(s int, t float64) bool {
	if e == nil || s < 0 || s >= e.servers {
		return false
	}
	wins := e.crash[s]
	i := sort.Search(len(wins), func(i int) bool { return wins[i].End > t })
	return i < len(wins) && wins[i].Start <= t
}

// Crashes returns server s's crash windows in start order. The returned
// slice is the engine's own table; callers must not mutate it.
func (e *Engine) Crashes(s int) []Window {
	if e == nil || s < 0 || s >= e.servers {
		return nil
	}
	return e.crash[s]
}

// SendDelay returns the transport delay (ms) applied to a dispatch to
// server s at sim time t.
func (e *Engine) SendDelay(s int, t float64) float64 {
	if e == nil || s < 0 || s >= e.servers {
		return 0
	}
	wins := e.delay[s]
	i := sort.Search(len(wins), func(i int) bool { return wins[i].End > t })
	if i < len(wins) && wins[i].Start <= t {
		return wins[i].delay
	}
	return 0
}

// DropSend reports whether a dispatch to server s at sim time t is
// dropped. Each call inside a drop window consumes one value from the
// server's seeded counter stream; calls outside every window consume
// nothing, so fault-free traffic does not perturb the stream.
func (e *Engine) DropSend(s int, t float64) bool {
	if e == nil || s < 0 || s >= e.servers {
		return false
	}
	wins := e.drop[s]
	i := sort.Search(len(wins), func(i int) bool { return wins[i].End > t })
	if i >= len(wins) || wins[i].Start > t {
		return false
	}
	n := e.sends[s].Add(1)
	x := parallel.SplitMix64(uint64(e.seed) ^ parallel.SplitMix64(uint64(s)+0x9e3779b97f4a7c15) ^ n)
	u := float64(x>>11) / (1 << 53)
	return u < wins[i].prob
}

// Reset rewinds the per-server drop streams so a reused engine replays
// the identical drop schedule on its next run.
func (e *Engine) Reset() {
	if e == nil {
		return
	}
	for s := range e.sends {
		e.sends[s].Store(0)
	}
}

// Active reports whether any fault window (of any kind, on any server)
// overlaps [t0, t1) — used by sweeps to sanity-check that the plan's
// windows actually intersect the simulated horizon.
func (e *Engine) Active(t0, t1 float64) bool {
	if e == nil {
		return false
	}
	overlap := func(w Window) bool { return w.Start < t1 && w.End > t0 }
	for s := 0; s < e.servers; s++ {
		for _, w := range e.slow[s] {
			if overlap(w.Window) {
				return true
			}
		}
		for _, w := range e.crash[s] {
			if overlap(w) {
				return true
			}
		}
		for _, w := range e.delay[s] {
			if overlap(w.Window) {
				return true
			}
		}
		for _, w := range e.drop[s] {
			if overlap(w.Window) {
				return true
			}
		}
	}
	return false
}
