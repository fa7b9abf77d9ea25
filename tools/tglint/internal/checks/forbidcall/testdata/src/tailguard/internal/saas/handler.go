package saas

import (
	"time"

	"tailguard/internal/obs"
)

type handler struct {
	obs   *obs.Tracer
	start time.Time
}

// submit derives the obs timestamp from the wall clock, which real-time
// embeddings legitimately do: no rule applies here.
func (h *handler) submit() {
	h.obs.Emit(obs.Event{TimeMs: float64(time.Since(h.start).Milliseconds())})
}
