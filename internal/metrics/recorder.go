// Package metrics provides the measurement substrate for TailGuard
// experiments: exact-quantile latency recorders, per-key breakdowns
// (per class, per fanout), bootstrap confidence intervals, and busy-time
// utilization meters.
//
// All values are float64 latencies/times in the caller's unit (the
// simulator uses milliseconds). Types in this package are not safe for
// concurrent use unless stated otherwise; the simulator is single-threaded
// and the live testbed wraps them in its own locking.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// LatencyRecorder accumulates latency samples and answers exact quantile
// queries over them. Quantiles are computed from the full sample set,
// which is what tail-latency SLO compliance checks need — estimators would
// blur exactly the statistic under study. A query selects the order
// statistics it reads in place rather than sorting, so after one the
// samples are in an unspecified order; it is deterministic, a function of
// the observations and queries alone.
type LatencyRecorder struct {
	samples []float64
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
// p is outside [0, 1]. It reorders the samples (see LatencyRecorder).
func (r *LatencyRecorder) Quantile(p float64) (float64, error) {
	if len(r.samples) == 0 {
		return 0, fmt.Errorf("metrics: quantile of empty recorder")
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("metrics: probability %v outside [0, 1]", p)
	}
	return quantile(r.samples, p), nil
}

// rank is Quantile's index arithmetic: the p-quantile of n sorted
// samples interpolates between order statistics i and i+1 at fraction
// frac (i >= n-1 means the largest sample).
func rank(n int, p float64) (i int, frac float64) {
	pos := p * float64(n-1)
	i = int(pos)
	return i, pos - float64(i)
}

// quantile returns the p-quantile of the non-empty, NaN-free s, bit for
// bit what sorting s and interpolating between order statistics i and
// i+1 gives, but in O(len(s)): it selects order statistic i into s[i]
// and takes i+1 as the least sample after it. s is reordered.
//
//tg:hotpath
func quantile(s []float64, p float64) float64 {
	n := len(s)
	i, frac := rank(n, p)
	if i >= n-1 {
		selectNth(s, n-1)
		return s[n-1]
	}
	selectNth(s, i)
	next := s[i+1]
	for _, v := range s[i+2:] {
		if v < next {
			next = v
		}
	}
	return s[i] + frac*(next-s[i])
}

// selectNth reorders the NaN-free s so that s[k] holds the value sorting
// would put there, with no larger sample before it and no smaller one
// after it: a quickselect with Hoare partitioning, which splits runs of
// equal samples evenly. Each pivot is the median of its window's first,
// middle and last samples, so the order it leaves depends on the input
// order alone. Small windows, and any window still open after
// 2·log2(len(s)) partitions (an adversarial order), are sorted outright,
// which bounds the work at O(n log n).
//
//tg:hotpath
func selectNth(s []float64, k int) {
	lo, hi := 0, len(s)-1
	for budget := 2 * bits.Len(uint(len(s))); hi > lo; budget-- {
		if budget == 0 || hi-lo < 16 {
			sort.Float64s(s[lo : hi+1])
			return
		}
		m := lo + (hi-lo)/2
		if s[m] < s[lo] {
			s[m], s[lo] = s[lo], s[m]
		}
		if s[hi] < s[m] {
			s[hi], s[m] = s[m], s[hi]
			if s[m] < s[lo] {
				s[m], s[lo] = s[lo], s[m]
			}
		}
		pivot := s[m]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for pivot < s[j] {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// Now s[lo:i] <= pivot <= s[j+1:hi+1], and j < i; anything between
		// j and i equals the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
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

// Samples returns a copy of the recorded samples: in insertion order when
// no quantile was queried since the last Reset, in the unspecified
// deterministic order quantile queries leave otherwise.
func (r *LatencyRecorder) Samples() []float64 {
	return append([]float64(nil), r.samples...)
}

// Reset discards all samples but keeps the allocated capacity.
func (r *LatencyRecorder) Reset() {
	r.samples = r.samples[:0]
	r.sum = 0
	r.max = 0
}
