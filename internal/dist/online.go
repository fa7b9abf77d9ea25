package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// OnlineCDFConfig configures an OnlineCDF.
type OnlineCDFConfig struct {
	// Min and Max bound the representable latency range; values outside
	// are clamped into the edge buckets. Defaults: 1e-3 and 1e6 ms.
	Min, Max float64
	// BucketsPerDecade controls resolution. Default 100 (≈2.3% relative
	// bucket width), well below the noise of any tail estimate here.
	BucketsPerDecade int
	// HalfLife, if positive, is the number of samples after which an old
	// observation's weight halves, implemented as lazy exponential decay
	// applied every DecayInterval samples. Zero disables decay (all
	// history weighs equally).
	HalfLife int
	// DecayInterval is how many Add calls occur between lazy decay sweeps.
	// Default 1024. Only meaningful when HalfLife > 0.
	DecayInterval int
}

func (c *OnlineCDFConfig) setDefaults() {
	if c.Min <= 0 {
		c.Min = 1e-3
	}
	if c.Max <= c.Min {
		c.Max = 1e6
	}
	if c.BucketsPerDecade <= 0 {
		c.BucketsPerDecade = 100
	}
	if c.DecayInterval <= 0 {
		c.DecayInterval = 1024
	}
}

// OnlineCDF is a streaming latency distribution built on a log-spaced
// bucket histogram. It implements the paper's online updating process
// (Section III.B.2): every merged task result contributes its observed
// post-queuing time, keeping the per-server CDFs current in the face of
// heterogeneity, skew, and drift. With a positive HalfLife, stale history
// decays so the estimate tracks regime changes.
//
// OnlineCDF is safe for concurrent use.
type OnlineCDF struct {
	mu      sync.RWMutex
	cfg     OnlineCDFConfig
	logMin  float64
	perDec  float64
	counts  []float64 // guarded by mu (bucket weights; the slice itself is fixed)
	total   float64   // guarded by mu
	sum     float64   // guarded by mu
	adds    int       // guarded by mu
	version uint64    // guarded by mu
	decayF  float64   // multiplicative decay applied every DecayInterval adds

	// Quantile memoization: a full Quantile call scans the histogram
	// (hundreds of buckets), while read-heavy phases (deadline budget
	// recomputes, testbed CDF reporting, repeated probes of the same p)
	// ask for the same probabilities over and over between writes. The
	// memo is a pure cache — it is dropped by every Add, so Quantile
	// always returns exactly what the unmemoized scan would.
	qmemo     map[float64]float64 // guarded by mu (valid while qmemoAdds == adds)
	qmemoAdds int                 // guarded by mu

	// Prefix sums for CDF: cum[i] = counts[0] + … + counts[i-1], summed
	// left to right, so CDF reads the same bits a per-call scan would
	// add up. A heterogeneous deadline stamp bisects Π F_l(t) and calls
	// CDF hundreds of times between two Adds; the sums are rebuilt on
	// the first CDF after an Add, so Add itself does no extra work.
	cum     []float64 // guarded by mu (valid while cumAdds == adds)
	cumAdds int       // guarded by mu
}

// quantileMemoMax caps the memo so callers probing many distinct
// probabilities (e.g. inverse-transform sampling) cannot grow it without
// bound; on overflow the memo simply resets.
const quantileMemoMax = 256

// NewOnlineCDF returns an empty online CDF with the given configuration.
func NewOnlineCDF(cfg OnlineCDFConfig) *OnlineCDF {
	cfg.setDefaults()
	decades := math.Log10(cfg.Max / cfg.Min)
	n := int(math.Ceil(decades*float64(cfg.BucketsPerDecade))) + 1
	o := &OnlineCDF{
		cfg:    cfg,
		logMin: math.Log10(cfg.Min),
		perDec: float64(cfg.BucketsPerDecade),
		counts: make([]float64, n),
	}
	if cfg.HalfLife > 0 {
		o.decayF = math.Exp2(-float64(cfg.DecayInterval) / float64(cfg.HalfLife))
	}
	return o
}

// bucketLocked returns the bucket index for latency t (clamped);
// callers hold mu.
func (o *OnlineCDF) bucketLocked(t float64) int {
	if t <= o.cfg.Min {
		return 0
	}
	i := int((math.Log10(t) - o.logMin) * o.perDec)
	if i >= len(o.counts) {
		i = len(o.counts) - 1
	}
	return i
}

// bucketLow returns the lower edge of bucket i.
func (o *OnlineCDF) bucketLow(i int) float64 {
	return math.Pow(10, o.logMin+float64(i)/o.perDec)
}

// Add records one observed latency. Negative or NaN values are rejected.
func (o *OnlineCDF) Add(t float64) error {
	_, err := o.AddVersioned(t)
	return err
}

// AddVersioned is Add that also reports whether this observation advanced
// Version, so a consumer caching derived quantities can keep one counter
// of its own instead of polling every CDF it reads.
func (o *OnlineCDF) AddVersioned(t float64) (advanced bool, err error) {
	if t < 0 || math.IsNaN(t) {
		return false, fmt.Errorf("dist: invalid latency observation %v", t)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.counts[o.bucketLocked(t)]++
	o.total++
	o.sum += t
	o.adds++
	if o.adds%o.cfg.DecayInterval != 0 {
		return false, nil
	}
	// Even without decay, bump the version periodically so consumers
	// caching derived quantities refresh as data accumulates.
	o.version++
	if o.decayF > 0 {
		for i := range o.counts {
			o.counts[i] *= o.decayF
		}
		o.total *= o.decayF
		o.sum *= o.decayF
	}
	return true, nil
}

// Count returns the current (possibly decayed) total weight.
func (o *OnlineCDF) Count() float64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.total
}

// Version returns a counter that increases when the distribution has
// changed enough that cached derivations (e.g. per-fanout budget tables)
// should be recomputed.
func (o *OnlineCDF) Version() uint64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.version
}

// CDF implements Distribution.
func (o *OnlineCDF) CDF(t float64) float64 {
	o.mu.RLock()
	if o.total == 0 || t < o.cfg.Min {
		o.mu.RUnlock()
		return 0
	}
	if o.cum != nil && o.cumAdds == o.adds {
		c := o.cdfLocked(t)
		o.mu.RUnlock()
		return c
	}
	o.mu.RUnlock()
	// Stale sums: rebuild under the write lock, so the sums and the
	// total that divides them come from the same adds.
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.cum == nil || o.cumAdds != o.adds {
		if o.cum == nil {
			o.cum = make([]float64, len(o.counts))
		}
		var c float64
		for i, w := range o.counts {
			o.cum[i] = c
			c += w
		}
		o.cumAdds = o.adds
	}
	return o.cdfLocked(t)
}

// cdfLocked reads the CDF at t >= Min from the prefix sums; callers hold
// mu with cum valid and total > 0.
func (o *OnlineCDF) cdfLocked(t float64) float64 {
	b := o.bucketLocked(t)
	// Linear interpolation within the bucket.
	lo, hi := o.bucketLow(b), o.bucketLow(b+1)
	frac := 1.0
	if hi > lo {
		frac = math.Min(1, math.Max(0, (t-lo)/(hi-lo)))
	}
	c := o.cum[b] + o.counts[b]*frac
	return math.Min(1, c/o.total)
}

// Quantile implements Distribution. Results are memoized until the next
// Add, so repeated queries at the same probability between writes cost
// one map lookup instead of a histogram scan.
func (o *OnlineCDF) Quantile(p float64) float64 {
	p = clampProb(p)
	o.mu.RLock()
	if o.qmemo != nil && o.qmemoAdds == o.adds {
		if v, ok := o.qmemo[p]; ok {
			o.mu.RUnlock()
			return v
		}
	}
	if o.total == 0 {
		o.mu.RUnlock()
		return 0
	}
	o.mu.RUnlock()
	// Miss: recompute and record under the write lock, so the stored
	// value is consistent with the qmemoAdds it is filed under even if
	// Adds landed between the two lock acquisitions.
	o.mu.Lock()
	defer o.mu.Unlock()
	v := o.quantileLocked(p)
	// A stale memo is emptied in place: a heterogeneous stamp after each
	// Add would otherwise allocate a fresh map per server.
	if o.qmemo == nil {
		o.qmemo = make(map[float64]float64, 8)
	} else if o.qmemoAdds != o.adds || len(o.qmemo) >= quantileMemoMax {
		clear(o.qmemo)
	}
	o.qmemoAdds = o.adds
	o.qmemo[p] = v
	return v
}

// quantileLocked scans the histogram for the p-quantile; callers hold mu.
func (o *OnlineCDF) quantileLocked(p float64) float64 {
	if o.total == 0 {
		return 0
	}
	target := p * o.total
	var c float64
	for i, w := range o.counts {
		if c+w >= target && w > 0 {
			lo, hi := o.bucketLow(i), o.bucketLow(i+1)
			frac := (target - c) / w
			return lo + frac*(hi-lo)
		}
		c += w
	}
	return o.bucketLow(len(o.counts))
}

// Mean implements Distribution.
func (o *OnlineCDF) Mean() float64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if o.total == 0 {
		return 0
	}
	return o.sum / o.total
}

// Sample implements Distribution (inverse transform on the histogram).
// It bypasses the quantile memo: random probabilities never repeat, so
// caching them would only churn the memo.
func (o *OnlineCDF) Sample(r *rand.Rand) float64 {
	p := clampProb(r.Float64())
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.quantileLocked(p)
}

// Seed bulk-loads the histogram from a distribution, emulating the paper's
// offline estimation process: n synthetic samples drawn at evenly spaced
// quantiles initialize every server's CDF before the service starts.
func (o *OnlineCDF) Seed(d Distribution, n int) error {
	if n <= 0 {
		return fmt.Errorf("dist: seed count must be positive, got %d", n)
	}
	for i := 0; i < n; i++ {
		p := (float64(i) + 0.5) / float64(n)
		if err := o.Add(d.Quantile(p)); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot materializes the current state as an immutable QuantileTable
// with roughly maxPoints breakpoints. Returns an error when empty.
func (o *OnlineCDF) Snapshot(maxPoints int) (*QuantileTable, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if o.total == 0 {
		return nil, fmt.Errorf("dist: snapshot of empty online CDF")
	}
	if maxPoints < 2 {
		return nil, fmt.Errorf("dist: snapshot needs >= 2 points, got %d", maxPoints)
	}
	// Walk buckets accumulating probability; emit a breakpoint whenever
	// enough probability has accumulated, plus fine-grained tail points.
	var bps []Breakpoint
	emit := func(p, t float64) {
		if len(bps) > 0 {
			last := bps[len(bps)-1]
			if p <= last.P {
				return
			}
			if t < last.T {
				t = last.T
			}
		}
		bps = append(bps, Breakpoint{P: p, T: t})
	}
	// First non-empty bucket's lower edge anchors P=0.
	first := -1
	for i, w := range o.counts {
		if w > 0 {
			first = i
			break
		}
	}
	emit(0, o.bucketLow(first))
	step := 1.0 / float64(maxPoints)
	var c float64
	nextP := step
	for i, w := range o.counts {
		if w == 0 {
			continue
		}
		c += w
		p := c / o.total
		if p >= nextP || 1-p < 0.02 {
			emit(math.Min(p, 1), o.bucketLow(i+1))
			nextP = p + step
		}
	}
	emit(1, o.bucketLow(len(o.counts)))
	if len(bps) < 2 {
		// All mass in one bucket: synthesize a two-point table.
		t := bps[0].T
		bps = []Breakpoint{{P: 0, T: t}, {P: 1, T: t}}
	}
	return NewQuantileTable(bps)
}
