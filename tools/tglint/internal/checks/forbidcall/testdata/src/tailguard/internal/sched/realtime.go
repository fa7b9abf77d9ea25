package sched

import "time"

// Elapsed may read the wall clock: internal/sched is the production
// embedding, not a virtual-time package, so no rule applies here.
func Elapsed(t0 time.Time) time.Duration {
	time.Sleep(time.Microsecond)
	return time.Since(t0)
}
