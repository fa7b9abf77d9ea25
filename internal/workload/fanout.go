package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// FanoutDist is a distribution over query fanouts, P(kf) in the paper's
// notation.
type FanoutDist interface {
	// Sample draws one fanout.
	Sample(r *rand.Rand) int
	// Support returns the distinct fanouts with positive probability, in
	// ascending order.
	Support() []int
	// Prob returns P(kf = k).
	Prob(k int) float64
	// MeanTasks returns E[kf], the mean number of tasks per query, used
	// to convert between offered load and arrival rate.
	MeanTasks() float64
	// Max returns the largest fanout in the support.
	Max() int
}

// Fixed is a point-mass fanout: every query spawns exactly K tasks. The
// OLDI case studies (Section IV.C) use Fixed(N).
type Fixed struct{ K int }

// NewFixed validates k and returns a fixed fanout distribution.
func NewFixed(k int) (Fixed, error) {
	if k < 1 {
		return Fixed{}, fmt.Errorf("workload: fanout must be >= 1, got %d", k)
	}
	return Fixed{K: k}, nil
}

// Sample implements FanoutDist.
func (f Fixed) Sample(*rand.Rand) int { return f.K }

// Support implements FanoutDist.
func (f Fixed) Support() []int { return []int{f.K} }

// Prob implements FanoutDist.
func (f Fixed) Prob(k int) float64 {
	if k == f.K {
		return 1
	}
	return 0
}

// MeanTasks implements FanoutDist.
func (f Fixed) MeanTasks() float64 { return float64(f.K) }

// Max implements FanoutDist.
func (f Fixed) Max() int { return f.K }

// Weighted is a finite fanout distribution over explicit (fanout, weight)
// points.
type Weighted struct {
	fanouts []int     // ascending
	probs   []float64 // normalized, parallel to fanouts
	cum     []float64
	mean    float64
}

// NewWeighted builds a weighted fanout distribution. Weights must be
// non-negative with a positive sum; they are normalized. Fanouts must be
// distinct and >= 1.
func NewWeighted(fanouts []int, weights []float64) (*Weighted, error) {
	if len(fanouts) == 0 || len(fanouts) != len(weights) {
		return nil, fmt.Errorf("workload: need matching non-empty fanouts/weights, got %d/%d", len(fanouts), len(weights))
	}
	type pt struct {
		k int
		w float64
	}
	pts := make([]pt, len(fanouts))
	var sum float64
	for i, k := range fanouts {
		if k < 1 {
			return nil, fmt.Errorf("workload: fanout must be >= 1, got %d", k)
		}
		if weights[i] < 0 {
			return nil, fmt.Errorf("workload: weight for fanout %d is negative", k)
		}
		pts[i] = pt{k: k, w: weights[i]}
		sum += weights[i]
	}
	if sum <= 0 {
		return nil, fmt.Errorf("workload: weights sum to %v", sum)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].k < pts[j].k })
	w := &Weighted{
		fanouts: make([]int, len(pts)),
		probs:   make([]float64, len(pts)),
		cum:     make([]float64, len(pts)),
	}
	var c float64
	for i, p := range pts {
		if i > 0 && p.k == pts[i-1].k {
			return nil, fmt.Errorf("workload: duplicate fanout %d", p.k)
		}
		w.fanouts[i] = p.k
		w.probs[i] = p.w / sum
		c += p.w / sum
		w.cum[i] = c
		w.mean += float64(p.k) * p.w / sum
	}
	w.cum[len(w.cum)-1] = 1
	return w, nil
}

// NewInverseProportional builds the paper's Section IV.B fanout model:
// P(kf) ∝ 1/kf over the given fanout points, so each fanout contributes
// the same expected number of tasks. With points {1, 10, 100} this yields
// P = {100/111, 10/111, 1/111}.
func NewInverseProportional(fanouts []int) (*Weighted, error) {
	weights := make([]float64, len(fanouts))
	for i, k := range fanouts {
		if k < 1 {
			return nil, fmt.Errorf("workload: fanout must be >= 1, got %d", k)
		}
		weights[i] = 1 / float64(k)
	}
	return NewWeighted(fanouts, weights)
}

// Sample implements FanoutDist.
func (w *Weighted) Sample(r *rand.Rand) int {
	u := r.Float64()
	i := sort.SearchFloat64s(w.cum, u)
	if i >= len(w.fanouts) {
		i = len(w.fanouts) - 1
	}
	return w.fanouts[i]
}

// Support implements FanoutDist.
func (w *Weighted) Support() []int { return append([]int(nil), w.fanouts...) }

// Prob implements FanoutDist.
func (w *Weighted) Prob(k int) float64 {
	i := sort.SearchInts(w.fanouts, k)
	if i < len(w.fanouts) && w.fanouts[i] == k {
		return w.probs[i]
	}
	return 0
}

// MeanTasks implements FanoutDist.
func (w *Weighted) MeanTasks() float64 { return w.mean }

// Max implements FanoutDist.
func (w *Weighted) Max() int { return w.fanouts[len(w.fanouts)-1] }

// Zipf is a Zipf-distributed fanout over 1..N with exponent s, modelling
// social-network-style fanout popularity (most queries touch few shards, a
// few touch many). It extends the paper's coverage of P(kf) models.
type Zipf struct {
	*Weighted
}

// NewZipf builds a Zipf fanout distribution over 1..maxFanout with the
// given exponent (> 0).
func NewZipf(maxFanout int, s float64) (*Zipf, error) {
	if maxFanout < 1 {
		return nil, fmt.Errorf("workload: max fanout must be >= 1, got %d", maxFanout)
	}
	if s <= 0 {
		return nil, fmt.Errorf("workload: zipf exponent must be positive, got %v", s)
	}
	fanouts := make([]int, maxFanout)
	weights := make([]float64, maxFanout)
	for k := 1; k <= maxFanout; k++ {
		fanouts[k-1] = k
		weights[k-1] = 1 / math.Pow(float64(k), s)
	}
	w, err := NewWeighted(fanouts, weights)
	if err != nil {
		return nil, err
	}
	return &Zipf{Weighted: w}, nil
}
