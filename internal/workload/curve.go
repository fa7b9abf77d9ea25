package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// RateCurve is a deterministic instantaneous-rate function lambda(t) for a
// non-homogeneous Poisson process. Curves are pure: At must depend only on
// t, so the thinning sampler in Modulated stays exact and replayable.
type RateCurve interface {
	// At returns the instantaneous arrival rate at time t (queries/ms),
	// >= 0 for all t >= 0.
	At(t float64) float64
	// Peak returns an upper bound on At over [0, inf) — the thinning
	// envelope. Tighter bounds reject fewer candidate points.
	Peak() float64
	// Mean returns the nominal rate reported through ArrivalProcess.Rate
	// (conventionally the baseline/long-run average, used for load
	// bookkeeping, not by the sampler).
	Mean() float64
}

// Modulated is a non-homogeneous Poisson process driven by a RateCurve,
// sampled exactly by thinning at the curve's peak rate. Its internal clock
// advances with the gaps it returns (one consumer per instance), and it
// supports Rebase so a backpressured generator can resume from "now"
// instead of replaying the arrivals it would have emitted while blocked.
type Modulated struct {
	curve RateCurve
	peak  float64
	mean  float64
	now   float64
}

// NewModulated validates the curve and builds the process. If the curve
// has a Validate() error method it is consulted first.
func NewModulated(curve RateCurve) (*Modulated, error) {
	if curve == nil {
		return nil, fmt.Errorf("workload: modulated arrival needs a rate curve")
	}
	if v, ok := curve.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return nil, err
		}
	}
	peak, mean := curve.Peak(), curve.Mean()
	if peak <= 0 || math.IsNaN(peak) || math.IsInf(peak, 0) {
		return nil, fmt.Errorf("workload: curve peak rate must be positive and finite, got %v", peak)
	}
	if mean <= 0 || math.IsNaN(mean) || math.IsInf(mean, 0) {
		return nil, fmt.Errorf("workload: curve mean rate must be positive and finite, got %v", mean)
	}
	return &Modulated{curve: curve, peak: peak, mean: mean}, nil
}

// NextGap implements ArrivalProcess by thinning at the peak rate.
func (m *Modulated) NextGap(r *rand.Rand) float64 {
	start := m.now
	for {
		m.now += r.ExpFloat64() / m.peak
		if r.Float64() < m.curve.At(m.now)/m.peak {
			return m.now - start
		}
	}
}

// Rate implements ArrivalProcess (the curve's nominal mean rate).
func (m *Modulated) Rate() float64 { return m.mean }

// Rebase implements Rebaser: the next gap is drawn from time t onward.
// Moving backwards is ignored so arrival times stay non-decreasing.
func (m *Modulated) Rebase(t float64) {
	if t > m.now {
		m.now = t
	}
}

// Now returns the process's internal clock (the absolute time of the last
// accepted arrival, or the rebased origin).
func (m *Modulated) Now() float64 { return m.now }

// SineCurve is the sinusoidal diurnal-wave rate
//
//	lambda(t) = Base * (1 + Amplitude * sin(2*pi*(t+PhaseMs)/PeriodMs))
//
// PhaseMs time-shifts the wave so several curves (or a curve and a flash
// overlay) can be composed out of phase. With PhaseMs = 0 it is bit-for-bit
// the rate of the original Sinusoidal process.
type SineCurve struct {
	Base      float64 // mean rate (queries/ms), > 0
	Amplitude float64 // relative swing in [0, 1)
	PeriodMs  float64 // wave period (ms), > 0
	PhaseMs   float64 // time shift (ms)
}

// Validate checks the curve parameters.
func (c SineCurve) Validate() error {
	if c.Base <= 0 || math.IsNaN(c.Base) || math.IsInf(c.Base, 0) {
		return fmt.Errorf("workload: sinusoidal mean rate must be positive and finite, got %v", c.Base)
	}
	if c.Amplitude < 0 || c.Amplitude >= 1 {
		return fmt.Errorf("workload: sinusoidal amplitude %v outside [0, 1)", c.Amplitude)
	}
	if c.PeriodMs <= 0 {
		return fmt.Errorf("workload: sinusoidal period must be positive, got %v", c.PeriodMs)
	}
	if math.IsNaN(c.PhaseMs) || math.IsInf(c.PhaseMs, 0) {
		return fmt.Errorf("workload: sinusoidal phase must be finite, got %v", c.PhaseMs)
	}
	return nil
}

// At implements RateCurve.
func (c SineCurve) At(t float64) float64 {
	return c.Base * (1 + c.Amplitude*math.Sin(2*math.Pi*(t+c.PhaseMs)/c.PeriodMs))
}

// Peak implements RateCurve.
func (c SineCurve) Peak() float64 { return c.Base * (1 + c.Amplitude) }

// Mean implements RateCurve.
func (c SineCurve) Mean() float64 { return c.Base }

// BurstCurve is a rectangular rate pulse — the thundering-herd model: the
// rate steps instantly from Base to PeakRate at StartMs and back after
// DurationMs. Base may be 0 so a pure pulse can overlay another curve.
type BurstCurve struct {
	Base       float64 // baseline rate (queries/ms), >= 0
	PeakRate   float64 // rate during the burst, > Base
	StartMs    float64 // burst onset (ms), >= 0
	DurationMs float64 // burst length (ms), > 0
}

// Validate checks the curve parameters.
func (c BurstCurve) Validate() error {
	if c.Base < 0 || math.IsNaN(c.Base) || math.IsInf(c.Base, 0) {
		return fmt.Errorf("workload: burst base rate must be >= 0 and finite, got %v", c.Base)
	}
	if c.PeakRate <= c.Base || math.IsNaN(c.PeakRate) || math.IsInf(c.PeakRate, 0) {
		return fmt.Errorf("workload: burst peak rate must exceed base %v and be finite, got %v", c.Base, c.PeakRate)
	}
	if c.StartMs < 0 || math.IsNaN(c.StartMs) || math.IsInf(c.StartMs, 0) {
		return fmt.Errorf("workload: burst start must be >= 0 and finite, got %v", c.StartMs)
	}
	if c.DurationMs <= 0 || math.IsNaN(c.DurationMs) || math.IsInf(c.DurationMs, 0) {
		return fmt.Errorf("workload: burst duration must be positive and finite, got %v", c.DurationMs)
	}
	return nil
}

// At implements RateCurve.
func (c BurstCurve) At(t float64) float64 {
	if t >= c.StartMs && t < c.StartMs+c.DurationMs {
		return c.PeakRate
	}
	return c.Base
}

// Peak implements RateCurve.
func (c BurstCurve) Peak() float64 { return c.PeakRate }

// Mean implements RateCurve (the baseline; the pulse is transient).
func (c BurstCurve) Mean() float64 {
	if c.Base > 0 {
		return c.Base
	}
	return c.PeakRate
}

// FlashCrowdCurve is the flash-sale trapezoid: baseline until StartMs, a
// linear ramp to PeakRate over RampMs (crowd building), a hold at PeakRate
// for HoldMs (the sale), and a linear decay back over DecayMs. RampMs or
// DecayMs may be 0 for step edges.
type FlashCrowdCurve struct {
	Base     float64 // baseline rate (queries/ms), >= 0
	PeakRate float64 // rate at the top of the crowd, > Base
	StartMs  float64 // ramp onset (ms), >= 0
	RampMs   float64 // ramp-up duration (ms), >= 0
	HoldMs   float64 // time at PeakRate (ms), >= 0
	DecayMs  float64 // decay duration (ms), >= 0
}

// Validate checks the curve parameters.
func (c FlashCrowdCurve) Validate() error {
	if c.Base < 0 || math.IsNaN(c.Base) || math.IsInf(c.Base, 0) {
		return fmt.Errorf("workload: flash-crowd base rate must be >= 0 and finite, got %v", c.Base)
	}
	if c.PeakRate <= c.Base || math.IsNaN(c.PeakRate) || math.IsInf(c.PeakRate, 0) {
		return fmt.Errorf("workload: flash-crowd peak rate must exceed base %v and be finite, got %v", c.Base, c.PeakRate)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"start", c.StartMs}, {"ramp", c.RampMs}, {"hold", c.HoldMs}, {"decay", c.DecayMs}} {
		if p.v < 0 || math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return fmt.Errorf("workload: flash-crowd %s must be >= 0 and finite, got %v", p.name, p.v)
		}
	}
	if c.RampMs+c.HoldMs+c.DecayMs <= 0 {
		return fmt.Errorf("workload: flash-crowd needs a positive ramp, hold, or decay duration")
	}
	return nil
}

// At implements RateCurve.
func (c FlashCrowdCurve) At(t float64) float64 {
	switch {
	case t < c.StartMs:
		return c.Base
	case t < c.StartMs+c.RampMs:
		return c.Base + (c.PeakRate-c.Base)*(t-c.StartMs)/c.RampMs
	case t < c.StartMs+c.RampMs+c.HoldMs:
		return c.PeakRate
	case t < c.StartMs+c.RampMs+c.HoldMs+c.DecayMs:
		return c.PeakRate - (c.PeakRate-c.Base)*(t-c.StartMs-c.RampMs-c.HoldMs)/c.DecayMs
	default:
		return c.Base
	}
}

// Peak implements RateCurve.
func (c FlashCrowdCurve) Peak() float64 { return c.PeakRate }

// Mean implements RateCurve (the baseline; the crowd is transient).
func (c FlashCrowdCurve) Mean() float64 {
	if c.Base > 0 {
		return c.Base
	}
	return c.PeakRate
}

// NewFlashCrowd is the convenience constructor for the flash-sale arrival
// process: baseline `base` q/ms, ramping to `peak` q/ms at startMs over
// rampMs, holding holdMs, decaying back over decayMs.
func NewFlashCrowd(base, peak, startMs, rampMs, holdMs, decayMs float64) (*Modulated, error) {
	return NewModulated(FlashCrowdCurve{
		Base: base, PeakRate: peak,
		StartMs: startMs, RampMs: rampMs, HoldMs: holdMs, DecayMs: decayMs,
	})
}

// NewBurst is the convenience constructor for the thundering-herd arrival
// process: a rectangular pulse from base to peak at startMs for durationMs.
func NewBurst(base, peak, startMs, durationMs float64) (*Modulated, error) {
	return NewModulated(BurstCurve{Base: base, PeakRate: peak, StartMs: startMs, DurationMs: durationMs})
}
