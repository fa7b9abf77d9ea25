package cluster

import (
	"time"

	"tailguard/internal/obs"
)

type runner struct {
	obs *obs.Tracer
	now float64 // sim clock (ms)
}

// ok timestamps events from the sim clock.
func (r *runner) ok() {
	r.obs.Emit(obs.Event{TimeMs: r.now})
	r.obs.Query(0, r.now, 1)
}

// bad stamps obs events from the wall clock: reported once, like any
// other wall-clock read in a virtual-time package.
func (r *runner) bad() {
	r.obs.Emit(obs.Event{TimeMs: float64(time.Now().UnixNano())}) // want "wall-clock call time.Now in virtual-time package tailguard/internal/cluster"
	r.obs.Query(0, time.Since(time.Unix(0, 0)).Seconds(), 1)      // want "wall-clock call time.Since in virtual-time package"
}

// unrelated wall-clock use is reported the same way.
func (r *runner) unrelated() time.Time {
	return time.Now() // want "wall-clock call time.Now in virtual-time package"
}
