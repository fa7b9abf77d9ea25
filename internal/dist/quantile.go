package dist

import (
	"fmt"
	"math/rand"
)

// Breakpoint is one (probability, value) pair of a piecewise-linear
// quantile function.
type Breakpoint struct {
	P float64 // cumulative probability in [0, 1]
	T float64 // latency value at that probability
}

// QuantileTable is a distribution defined by a piecewise-linear quantile
// function through a set of breakpoints. It is the workhorse model of this
// repository: the Tailbench workload models are hand-calibrated tables, and
// ECDF/OnlineCDF snapshots are materialized as tables.
//
// Quantile and CDF run in O(1) expected time: fixed-stride bucket
// indexes over the breakpoints' P and T axes (built once at
// construction) narrow each lookup to the same bracket binary search
// would find, and the interpolation is unchanged — so every output is
// bit-identical to the former sort.Search implementation while the
// inverse-transform sampling hot path loses its log factor and its
// closure-calling overhead.
//
// The table is immutable after construction and safe for concurrent use.
type QuantileTable struct {
	bps  []Breakpoint
	mean float64
	pidx bucketIndex // probability axis, backs Quantile
	tidx bucketIndex // value axis, backs CDF
}

// bucketIndex accelerates lower-bound searches over a sorted float axis.
// For bucket k covering [lo + k*stride, lo + (k+1)*stride), start[k] is
// the smallest element index whose axis value is >= the bucket's lower
// edge. A lookup seeds from start[bucket(x)] and walks the few elements
// sharing the bucket; the walk (not the seed) decides the final index,
// so floating-point rounding in the bucket computation can never change
// the result — only the walk length.
type bucketIndex struct {
	lo, stride float64
	start      []int32
}

// newBucketIndex indexes axis (sorted ascending) with about 2 buckets
// per element, capping the expected per-lookup walk at O(1).
func newBucketIndex(axis func(i int) float64, n int) bucketIndex {
	lo, hi := axis(0), axis(n-1)
	if n < 2 || hi <= lo {
		return bucketIndex{} // degenerate axis; lookups fall back to a walk
	}
	buckets := 2 * n
	idx := bucketIndex{lo: lo, stride: (hi - lo) / float64(buckets), start: make([]int32, buckets+1)}
	e := 0
	for k := 0; k <= buckets; k++ {
		edge := lo + float64(k)*idx.stride
		for e < n && axis(e) < edge {
			e++
		}
		idx.start[k] = int32(e)
	}
	return idx
}

// seed returns a starting element index for the lower-bound search of x.
// It is only a hint: callers must walk to the exact bracket.
func (b *bucketIndex) seed(x float64) int {
	if len(b.start) == 0 {
		return 0
	}
	k := int((x - b.lo) / b.stride)
	if k < 0 {
		return 0
	}
	if k >= len(b.start) {
		k = len(b.start) - 1
	}
	return int(b.start[k])
}

// NewQuantileTable builds a table from breakpoints. Requirements:
// strictly increasing P starting at 0 and ending at 1, and non-decreasing
// non-negative T.
func NewQuantileTable(bps []Breakpoint) (*QuantileTable, error) {
	if len(bps) < 2 {
		return nil, fmt.Errorf("dist: quantile table needs >= 2 breakpoints, got %d", len(bps))
	}
	if bps[0].P != 0 {
		return nil, fmt.Errorf("dist: quantile table must start at P=0, got %v", bps[0].P)
	}
	if bps[len(bps)-1].P != 1 {
		return nil, fmt.Errorf("dist: quantile table must end at P=1, got %v", bps[len(bps)-1].P)
	}
	for i := 1; i < len(bps); i++ {
		if bps[i].P <= bps[i-1].P {
			return nil, fmt.Errorf("dist: quantile table P not strictly increasing at index %d (%v <= %v)", i, bps[i].P, bps[i-1].P)
		}
		if bps[i].T < bps[i-1].T {
			return nil, fmt.Errorf("dist: quantile table T decreasing at index %d (%v < %v)", i, bps[i].T, bps[i-1].T)
		}
	}
	if bps[0].T < 0 {
		return nil, fmt.Errorf("dist: quantile table has negative latency %v", bps[0].T)
	}
	q := &QuantileTable{bps: append([]Breakpoint(nil), bps...)}
	q.mean = q.integrate()
	q.pidx = newBucketIndex(func(i int) float64 { return q.bps[i].P }, len(q.bps))
	q.tidx = newBucketIndex(func(i int) float64 { return q.bps[i].T }, len(q.bps))
	return q, nil
}

// integrate computes E[X] = ∫₀¹ Q(u) du exactly (trapezoid per segment,
// which is exact for a piecewise-linear Q).
func (q *QuantileTable) integrate() float64 {
	var m float64
	for i := 1; i < len(q.bps); i++ {
		a, b := q.bps[i-1], q.bps[i]
		m += (b.P - a.P) * (a.T + b.T) / 2
	}
	return m
}

// Breakpoints returns a copy of the table's breakpoints.
func (q *QuantileTable) Breakpoints() []Breakpoint {
	return append([]Breakpoint(nil), q.bps...)
}

// Quantile implements Distribution. The bucket index narrows to the
// exact bracket sort.Search would find; the interpolation is identical,
// so outputs are bit-for-bit those of the binary-search implementation.
func (q *QuantileTable) Quantile(p float64) float64 {
	p = clampProb(p)
	// Inline lower bound over the P axis (smallest i with P[i] >= p),
	// seeded by the bucket index; the explicit walk avoids the closure
	// call of bucketIndex.lowerBound on the sampling hot path.
	n := len(q.bps)
	i := q.pidx.seed(p)
	for i > 0 && q.bps[i-1].P >= p {
		i--
	}
	for i < n && q.bps[i].P < p {
		i++
	}
	if i == 0 {
		return q.bps[0].T
	}
	if i >= n {
		return q.bps[n-1].T
	}
	a, b := q.bps[i-1], q.bps[i]
	frac := (p - a.P) / (b.P - a.P)
	return a.T + frac*(b.T-a.T)
}

// CDF implements Distribution. For flat segments (repeated T) it returns
// the highest probability attaining t, consistent with P(X <= t).
func (q *QuantileTable) CDF(t float64) float64 {
	if t < q.bps[0].T {
		return 0
	}
	last := q.bps[len(q.bps)-1]
	if t >= last.T {
		return 1
	}
	// Find the last breakpoint with T <= t, then interpolate within the
	// following segment: an upper-bound walk (smallest i with T[i] > t)
	// seeded by the T-axis bucket index, matching the former sort.Search
	// bracket exactly.
	n := len(q.bps)
	i := q.tidx.seed(t)
	for i > 0 && q.bps[i-1].T > t {
		i--
	}
	for i < n && q.bps[i].T <= t {
		i++
	}
	// i >= 1 because t >= bps[0].T, and i < len because t < last.T.
	a, b := q.bps[i-1], q.bps[i]
	// Breakpoints are T-sorted, so <= here means a degenerate (zero-width)
	// segment; bail before dividing by it.
	if b.T <= a.T {
		return b.P
	}
	frac := (t - a.T) / (b.T - a.T)
	return a.P + frac*(b.P-a.P)
}

// Mean implements Distribution.
func (q *QuantileTable) Mean() float64 { return q.mean }

// Sample implements Distribution (inverse-transform sampling).
func (q *QuantileTable) Sample(r *rand.Rand) float64 { return q.Quantile(r.Float64()) }

// ScaleBody returns a copy of the table with every breakpoint at P <= pBody
// multiplied by factor. Breakpoints above pBody are untouched, so tail
// quantiles are preserved exactly. Used to calibrate a model's mean without
// disturbing its published tail statistics. Returns an error if the scaled
// body would overtake the fixed tail (monotonicity violation).
func (q *QuantileTable) ScaleBody(pBody, factor float64) (*QuantileTable, error) {
	if err := checkProb(pBody); err != nil {
		return nil, err
	}
	if factor <= 0 {
		return nil, fmt.Errorf("dist: body scale factor must be positive, got %v", factor)
	}
	bps := q.Breakpoints()
	for i := range bps {
		if bps[i].P <= pBody {
			bps[i].T *= factor
		}
	}
	return NewQuantileTable(bps)
}

// CalibrateMean searches for a body-scale factor such that the resulting
// table's mean equals target, scaling only breakpoints at P <= pBody. The
// mean of a piecewise-linear quantile table is affine in the body scale, so
// the factor is solved directly. Tail breakpoints (P > pBody) keep their
// exact values.
func (q *QuantileTable) CalibrateMean(pBody, target float64) (*QuantileTable, error) {
	if target <= 0 {
		return nil, fmt.Errorf("dist: target mean must be positive, got %v", target)
	}
	base, err := q.ScaleBody(pBody, 1) // validates pBody, copies
	if err != nil {
		return nil, err
	}
	// Mean(c) = fixed + c*bodyContribution. Evaluate at c=1 and c=0.5 and
	// solve the linear equation. ScaleBody at small c may violate
	// monotonicity; compute contributions directly instead.
	var fixed, body float64
	for i := 1; i < len(base.bps); i++ {
		a, b := base.bps[i-1], base.bps[i]
		w := (b.P - a.P) / 2
		for _, bp := range []Breakpoint{a, b} {
			if bp.P <= pBody {
				body += w * bp.T
			} else {
				fixed += w * bp.T
			}
		}
	}
	if body <= 0 {
		return nil, fmt.Errorf("dist: no body mass below P=%v to calibrate", pBody)
	}
	factor := (target - fixed) / body
	if factor <= 0 {
		return nil, fmt.Errorf("dist: target mean %v unreachable (fixed tail already contributes %v)", target, fixed)
	}
	return q.ScaleBody(pBody, factor)
}
