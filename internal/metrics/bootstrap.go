package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// bootstrapScratch holds the resample buffers reused across
// BootstrapQuantileCI calls; every element is overwritten before it is
// read, so the buffers need no zeroing between uses.
type bootstrapScratch struct {
	stats []float64
	buf   []float64
}

var bootstrapPool = sync.Pool{New: func() any { return new(bootstrapScratch) }}

// QuantileCI is a bootstrap confidence interval for a quantile estimate.
type QuantileCI struct {
	Point float64 // the sample quantile itself
	Lo    float64
	Hi    float64
}

// BootstrapQuantileCI estimates a confidence interval for the recorder's
// p-quantile by the percentile bootstrap: resamples (with replacement)
// times, quantile of each, then the (1±conf)/2 percentiles of those. Tail
// statistics like the p99 are noisy at realistic sample counts; reporting
// the interval keeps experiment comparisons honest.
//
// For large recorders an m-out-of-n bootstrap (m capped at 20000) keeps
// the cost bounded; the interval is rescaled accordingly (sqrt(m/n)
// shrinkage around the point estimate).
func BootstrapQuantileCI(r *LatencyRecorder, p float64, resamples int, conf float64, seed int64) (QuantileCI, error) {
	if r == nil || r.Count() == 0 {
		return QuantileCI{}, fmt.Errorf("metrics: bootstrap of empty recorder")
	}
	if resamples < 10 {
		return QuantileCI{}, fmt.Errorf("metrics: need >= 10 resamples, got %d", resamples)
	}
	if conf <= 0 || conf >= 1 {
		return QuantileCI{}, fmt.Errorf("metrics: confidence %v outside (0, 1)", conf)
	}
	point, err := r.Quantile(p)
	if err != nil {
		return QuantileCI{}, err
	}
	// Resample from the recorder's samples in place, in ascending order:
	// a draw is an index, so the order decides which values each resample
	// gets, and ascending is the order the intervals are defined over.
	samples := r.samples
	sort.Float64s(samples)
	n := len(samples)
	m := n
	const mCap = 20000
	if m > mCap {
		m = mCap
	}
	rng := rand.New(rand.NewSource(seed))
	sc := bootstrapPool.Get().(*bootstrapScratch)
	defer bootstrapPool.Put(sc)
	if cap(sc.stats) < resamples {
		sc.stats = make([]float64, resamples)
	}
	if cap(sc.buf) < m {
		sc.buf = make([]float64, m)
	}
	stats := sc.stats[:resamples]
	buf := sc.buf[:m]
	for b := 0; b < resamples; b++ {
		for i := range buf {
			buf[i] = samples[rng.Intn(n)]
		}
		stats[b] = quantile(buf, p)
	}
	sort.Float64s(stats)
	alpha := (1 - conf) / 2
	lo := stats[int(alpha*float64(resamples-1))]
	hi := stats[int((1-alpha)*float64(resamples-1))]
	if m < n {
		// m-out-of-n widens the spread by ~sqrt(n/m); shrink back toward
		// the point estimate.
		scale := 1 / math.Sqrt(float64(n)/float64(m))
		lo = point + (lo-point)*scale
		hi = point + (hi-point)*scale
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	return QuantileCI{Point: point, Lo: lo, Hi: hi}, nil
}
