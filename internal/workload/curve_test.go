package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestSinusoidalBitIdenticalToReference pins the curve-backed Sinusoidal
// to the pre-curve implementation draw for draw: same seed, same gaps, to
// the last bit. This is what keeps the surge-experiment goldens stable
// across the refactor.
func TestSinusoidalBitIdenticalToReference(t *testing.T) {
	const mean, amp, period = 1.2, 0.6, 750.0
	s, err := NewSinusoidal(mean, amp, period)
	if err != nil {
		t.Fatalf("NewSinusoidal: %v", err)
	}
	r1 := rand.New(rand.NewSource(42))
	r2 := rand.New(rand.NewSource(42))
	now := 0.0
	for i := 0; i < 5000; i++ {
		got := s.NextGap(r1)
		// Reference: the original thinning loop, expression for expression.
		peak := mean * (1 + amp)
		start := now
		var want float64
		for {
			now += r2.ExpFloat64() / peak
			if r2.Float64() < mean*(1+amp*math.Sin(2*math.Pi*now/period))/peak {
				want = now - start
				break
			}
		}
		if got != want {
			t.Fatalf("draw %d: gap = %v, reference = %v", i, got, want)
		}
	}
}

func TestSinusoidalPhasedShiftsWave(t *testing.T) {
	// Phase by a quarter period: the wave peaks where the unphased one
	// crosses zero. Compare instantaneous rates directly.
	base := SineCurve{Base: 1, Amplitude: 0.8, PeriodMs: 1000}
	shift := SineCurve{Base: 1, Amplitude: 0.8, PeriodMs: 1000, PhaseMs: 250}
	if got, want := shift.At(0), base.At(250); got != want {
		t.Errorf("phased At(0) = %v, want %v", got, want)
	}
	if shift.At(0) <= 1.7 {
		t.Errorf("phased curve should start at its crest, got rate %v", shift.At(0))
	}
	if _, err := NewSinusoidalPhased(1, 0.5, 100, math.NaN()); err == nil {
		t.Error("NaN phase succeeded")
	}
}

func TestBurstCurveShape(t *testing.T) {
	c := BurstCurve{Base: 0.5, PeakRate: 5, StartMs: 100, DurationMs: 50}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for _, tc := range []struct {
		t, want float64
	}{{0, 0.5}, {99.9, 0.5}, {100, 5}, {149.9, 5}, {150, 0.5}, {1000, 0.5}} {
		if got := c.At(tc.t); got != tc.want {
			t.Errorf("At(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	if c.Peak() != 5 {
		t.Errorf("Peak() = %v", c.Peak())
	}
}

func TestFlashCrowdCurveShape(t *testing.T) {
	c := FlashCrowdCurve{Base: 1, PeakRate: 9, StartMs: 100, RampMs: 40, HoldMs: 100, DecayMs: 80}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for _, tc := range []struct {
		t, want float64
	}{
		{0, 1}, {100, 1}, {120, 5}, {140, 9}, {200, 9},
		{240, 9}, {280, 5}, {320, 1}, {500, 1},
	} {
		if got := c.At(tc.t); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestCurveValidation(t *testing.T) {
	bad := []RateCurve{
		BurstCurve{Base: -1, PeakRate: 2, StartMs: 0, DurationMs: 1},
		BurstCurve{Base: 2, PeakRate: 1, StartMs: 0, DurationMs: 1},
		BurstCurve{Base: 0, PeakRate: 1, StartMs: -1, DurationMs: 1},
		BurstCurve{Base: 0, PeakRate: 1, StartMs: 0, DurationMs: 0},
		FlashCrowdCurve{Base: 0, PeakRate: 1},
		FlashCrowdCurve{Base: 0, PeakRate: 1, RampMs: -1, HoldMs: 1},
		FlashCrowdCurve{Base: 1, PeakRate: 1, HoldMs: 1},
		SineCurve{Base: 1, Amplitude: 1, PeriodMs: 10},
	}
	for i, c := range bad {
		if _, err := NewModulated(c); err == nil {
			t.Errorf("bad curve %d (%T) accepted", i, c)
		}
	}
	if _, err := NewModulated(nil); err == nil {
		t.Error("nil curve accepted")
	}
}

// TestBurstConcentratesArrivals drives the thundering-herd process and
// checks the pulse window dominates the arrival count.
func TestBurstConcentratesArrivals(t *testing.T) {
	m, err := NewBurst(0.2, 20, 500, 100)
	if err != nil {
		t.Fatalf("NewBurst: %v", err)
	}
	r := rand.New(rand.NewSource(7))
	var at float64
	in, out := 0, 0
	for at < 1000 {
		at += m.NextGap(r)
		if at >= 500 && at < 600 {
			in++
		} else if at < 1000 {
			out++
		}
	}
	// Expected ~2000 in the pulse vs ~180 outside.
	if in < 10*out {
		t.Errorf("burst window arrivals %d not dominating baseline %d", in, out)
	}
}

func TestModulatedRebase(t *testing.T) {
	m, err := NewFlashCrowd(1, 10, 100, 0, 50, 0)
	if err != nil {
		t.Fatalf("NewFlashCrowd: %v", err)
	}
	r := rand.New(rand.NewSource(3))
	m.NextGap(r)
	was := m.Now()
	m.Rebase(was - 1) // backwards: ignored
	if m.Now() != was {
		t.Errorf("backwards rebase moved clock to %v", m.Now())
	}
	m.Rebase(was + 500)
	if m.Now() != was+500 {
		t.Errorf("rebase: clock = %v, want %v", m.Now(), was+500)
	}
	if gap := m.NextGap(r); m.Now() <= was+500 {
		t.Errorf("post-rebase arrival %v (gap %v) not after rebase point", m.Now(), gap)
	}
}

func TestGeneratorRebaseTo(t *testing.T) {
	arr, err := NewSinusoidal(1, 0.5, 500)
	if err != nil {
		t.Fatalf("NewSinusoidal: %v", err)
	}
	fan, err := NewFixed(2)
	if err != nil {
		t.Fatalf("NewFixed: %v", err)
	}
	cls, err := SingleClass(1.0)
	if err != nil {
		t.Fatalf("SingleClass: %v", err)
	}
	g, err := NewGenerator(GeneratorConfig{
		Servers: 8,
		Arrival: arr,
		Fanout:  fan,
		Classes: cls,
	}, 1)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	for i := 0; i < 5; i++ {
		g.Next()
	}
	resume := g.Now() + 250
	g.RebaseTo(resume)
	if g.Now() != resume {
		t.Fatalf("generator clock = %v, want %v", g.Now(), resume)
	}
	if arr.Now() != resume {
		t.Fatalf("arrival clock = %v, want %v (Rebaser not invoked)", arr.Now(), resume)
	}
	q, _ := g.Next()
	if q.Arrival <= resume {
		t.Errorf("post-rebase arrival %v not after resume point %v", q.Arrival, resume)
	}
	g.RebaseTo(resume) // backwards/no-op
	if g.Now() < q.Arrival {
		t.Errorf("backwards RebaseTo rewound the clock to %v", g.Now())
	}
}
