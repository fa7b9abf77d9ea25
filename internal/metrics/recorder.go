// Package metrics provides the measurement substrate for TailGuard
// experiments: exact-quantile latency recorders, per-key breakdowns
// (per class, per fanout), moving-window ratio trackers used by admission
// control, and busy-time utilization meters.
//
// All values are float64 latencies/times in the caller's unit (the
// simulator uses milliseconds). Types in this package are not safe for
// concurrent use unless stated otherwise; the simulator is single-threaded
// and the live testbed wraps them in its own locking.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// LatencyRecorder accumulates latency samples and answers exact quantile
// queries over them. Quantiles are computed from the full sample set
// (sorted lazily and cached), which is what tail-latency SLO compliance
// checks need — estimators would blur exactly the statistic under study.
type LatencyRecorder struct {
	samples []float64
	sorted  bool
	sum     float64
	max     float64
}

// NewLatencyRecorder returns an empty recorder with the given capacity hint.
func NewLatencyRecorder(capacityHint int) *LatencyRecorder {
	if capacityHint < 0 {
		capacityHint = 0
	}
	return &LatencyRecorder{samples: make([]float64, 0, capacityHint)}
}

// Observe records one latency sample. Negative and NaN samples are
// rejected: they always indicate a bookkeeping bug upstream.
//
//tg:hotpath
func (r *LatencyRecorder) Observe(v float64) error {
	if v < 0 || math.IsNaN(v) {
		return fmt.Errorf("metrics: invalid latency sample %v", v) //tg:cold error path, indicates an upstream bug
	}
	r.samples = append(r.samples, v)
	r.sorted = false
	r.sum += v
	if v > r.max {
		r.max = v
	}
	return nil
}

// Count returns the number of recorded samples.
func (r *LatencyRecorder) Count() int { return len(r.samples) }

// Mean returns the sample mean, or 0 when empty.
func (r *LatencyRecorder) Mean() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	return r.sum / float64(len(r.samples))
}

// Max returns the largest sample, or 0 when empty.
func (r *LatencyRecorder) Max() float64 { return r.max }

// Quantile returns the exact p-quantile (nearest-rank with linear
// interpolation between order statistics), or an error when empty or when
// p is outside [0, 1].
func (r *LatencyRecorder) Quantile(p float64) (float64, error) {
	if len(r.samples) == 0 {
		return 0, fmt.Errorf("metrics: quantile of empty recorder")
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("metrics: probability %v outside [0, 1]", p)
	}
	if !r.sorted {
		sort.Float64s(r.samples)
		r.sorted = true
	}
	n := len(r.samples)
	i, frac := rank(n, p)
	if i >= n-1 {
		return r.samples[n-1], nil
	}
	return r.samples[i] + frac*(r.samples[i+1]-r.samples[i]), nil
}

// rank is Quantile's index arithmetic: the p-quantile of n sorted
// samples interpolates between order statistics i and i+1 at fraction
// frac (i >= n-1 means the largest sample).
func rank(n int, p float64) (i int, frac float64) {
	pos := p * float64(n-1)
	i = int(pos)
	return i, pos - float64(i)
}

// ExceedQuota returns how many of n samples must lie above a threshold
// for Quantile(p) over all n to be above it too, whatever the rest are:
// Quantile reads order statistic i = int(p·(n−1)) and the ones after it,
// so once n − i samples exceed the threshold, all of those do. It lets a
// caller that knows a recorder's final count call an SLO check failed
// before the last sample arrives; fewer exceedances decide nothing.
func ExceedQuota(n int, p float64) int {
	i, _ := rank(n, p)
	return n - i
}

// P99 returns the 99th-percentile latency, the paper's headline statistic.
func (r *LatencyRecorder) P99() (float64, error) { return r.Quantile(0.99) }

// Samples returns a copy of the recorded samples (sorted if a quantile was
// queried since the last Observe, in insertion order otherwise).
func (r *LatencyRecorder) Samples() []float64 {
	return append([]float64(nil), r.samples...)
}

// Reset discards all samples but keeps the allocated capacity.
func (r *LatencyRecorder) Reset() {
	r.samples = r.samples[:0]
	r.sorted = false
	r.sum = 0
	r.max = 0
}
