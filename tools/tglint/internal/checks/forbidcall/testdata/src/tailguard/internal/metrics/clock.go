package metrics

import "time"

// elapsedMs reads the wall clock outside internal/fault: the fault rule
// stays silent here, the virtual-time rule does not.
func elapsedMs(t0 time.Time) float64 {
	return float64(time.Since(t0)) / float64(time.Millisecond) // want "wall-clock call time.Since in virtual-time package tailguard/internal/metrics"
}
