package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Deterministic is a point mass at V.
type Deterministic struct{ V float64 }

// CDF implements Distribution.
func (d Deterministic) CDF(t float64) float64 {
	if t >= d.V {
		return 1
	}
	return 0
}

// Quantile implements Distribution.
func (d Deterministic) Quantile(float64) float64 { return d.V }

// Mean implements Distribution.
func (d Deterministic) Mean() float64 { return d.V }

// Sample implements Distribution.
func (d Deterministic) Sample(*rand.Rand) float64 { return d.V }

// Uniform is the continuous uniform distribution on [Lo, Hi].
type Uniform struct{ Lo, Hi float64 }

// NewUniform validates the bounds and returns a Uniform distribution.
func NewUniform(lo, hi float64) (Uniform, error) {
	if hi < lo {
		return Uniform{}, fmt.Errorf("dist: uniform bounds inverted: [%v, %v]", lo, hi)
	}
	return Uniform{Lo: lo, Hi: hi}, nil
}

// CDF implements Distribution.
func (u Uniform) CDF(t float64) float64 {
	switch {
	case t <= u.Lo:
		return 0
	case t >= u.Hi:
		return 1
	default:
		return (t - u.Lo) / (u.Hi - u.Lo)
	}
}

// Quantile implements Distribution.
func (u Uniform) Quantile(p float64) float64 {
	p = clampProb(p)
	return u.Lo + p*(u.Hi-u.Lo)
}

// Mean implements Distribution.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Sample implements Distribution.
func (u Uniform) Sample(r *rand.Rand) float64 { return u.Quantile(r.Float64()) }

// Exponential is the exponential distribution with the given mean
// (rate = 1/Mean). It is the service-time analog of the Poisson
// inter-arrival processes used by the workload package.
type Exponential struct{ M float64 }

// NewExponential validates the mean and returns an Exponential distribution.
func NewExponential(mean float64) (Exponential, error) {
	if mean <= 0 {
		return Exponential{}, fmt.Errorf("dist: exponential mean must be positive, got %v", mean)
	}
	return Exponential{M: mean}, nil
}

// CDF implements Distribution.
func (e Exponential) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return 1 - math.Exp(-t/e.M)
}

// Quantile implements Distribution.
func (e Exponential) Quantile(p float64) float64 {
	p = clampProb(p)
	if p >= 1 {
		return math.Inf(1)
	}
	return -e.M * math.Log(1-p)
}

// Mean implements Distribution.
func (e Exponential) Mean() float64 { return e.M }

// Sample implements Distribution.
func (e Exponential) Sample(r *rand.Rand) float64 { return e.M * r.ExpFloat64() }

// Shifted adds a constant offset to another distribution, modelling fixed
// overheads such as dispatch or network round-trip floors.
type Shifted struct {
	D      Distribution
	Offset float64
}

// CDF implements Distribution.
func (s Shifted) CDF(t float64) float64 { return s.D.CDF(t - s.Offset) }

// Quantile implements Distribution.
func (s Shifted) Quantile(p float64) float64 { return s.D.Quantile(p) + s.Offset }

// Mean implements Distribution.
func (s Shifted) Mean() float64 { return s.D.Mean() + s.Offset }

// Sample implements Distribution.
func (s Shifted) Sample(r *rand.Rand) float64 { return s.D.Sample(r) + s.Offset }

// Scaled multiplies another distribution by a positive factor, modelling
// slower or faster server hardware sharing a common latency shape.
type Scaled struct {
	D      Distribution
	Factor float64
}

// NewScaled validates the factor and returns a Scaled distribution.
func NewScaled(d Distribution, factor float64) (Scaled, error) {
	if factor <= 0 {
		return Scaled{}, fmt.Errorf("dist: scale factor must be positive, got %v", factor)
	}
	return Scaled{D: d, Factor: factor}, nil
}

// CDF implements Distribution.
func (s Scaled) CDF(t float64) float64 { return s.D.CDF(t / s.Factor) }

// Quantile implements Distribution.
func (s Scaled) Quantile(p float64) float64 { return s.D.Quantile(p) * s.Factor }

// Mean implements Distribution.
func (s Scaled) Mean() float64 { return s.D.Mean() * s.Factor }

// Sample implements Distribution.
func (s Scaled) Sample(r *rand.Rand) float64 { return s.D.Sample(r) * s.Factor }

// invertCDF finds the smallest t with cdf(t) >= p by expanding the bracket
// from hint and bisecting. cdf must be non-decreasing.
func invertCDF(cdf func(float64) float64, p float64, hint float64) float64 {
	if p <= 0 {
		return 0
	}
	hi := hint
	if hi <= 0 {
		hi = 1
	}
	for i := 0; cdf(hi) < p && i < 128; i++ {
		hi *= 2
	}
	lo := 0.0
	for i := 0; i < 96; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) >= p {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
