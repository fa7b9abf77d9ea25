package metrics

import (
	"math"
	"math/rand"
	"testing"
)

func TestBootstrapQuantileCICoverageRate(t *testing.T) {
	// Exponential(1): true p99 = ln(100) ≈ 4.605. Across replications a
	// 95% CI must cover the truth roughly 95% of the time; any single
	// replication may legitimately miss, so assert the rate. The seeds are
	// fixed, so the exact count is pinned too: a change to the resampling
	// shows up here even while the rate stays above the floor.
	truth := math.Log(100)
	const (
		reps        = 40
		n           = 2000
		resamples   = 100
		wantCovered = 37
	)
	covered := 0
	for rep := 0; rep < reps; rep++ {
		r := NewLatencyRecorder(n)
		rng := rand.New(rand.NewSource(int64(rep + 1)))
		for i := 0; i < n; i++ {
			_ = r.Observe(rng.ExpFloat64())
		}
		ci, err := BootstrapQuantileCI(r, 0.99, resamples, 0.95, int64(rep+1000))
		if err != nil {
			t.Fatalf("BootstrapQuantileCI: %v", err)
		}
		if ci.Point < ci.Lo-1e-9 || ci.Point > ci.Hi+1e-9 {
			t.Fatalf("point %v outside its own CI [%v, %v]", ci.Point, ci.Lo, ci.Hi)
		}
		if width := ci.Hi - ci.Lo; width <= 0 || width > truth {
			t.Fatalf("CI width = %v, want in (0, %v)", width, truth)
		}
		if ci.Lo <= truth && truth <= ci.Hi {
			covered++
		}
	}
	// Percentile-bootstrap tail CIs under-cover somewhat at small n;
	// anything below 75% signals a real bug rather than bootstrap bias.
	if rate := float64(covered) / reps; rate < 0.75 {
		t.Errorf("coverage rate = %v (%d/%d), want >= 0.75", rate, covered, reps)
	}
	if covered != wantCovered {
		t.Errorf("covered %d of %d, want exactly %d for these seeds", covered, reps, wantCovered)
	}
}

// TestBootstrapQuantileCIPinned pins one interval bit for bit. The
// resamples draw indices into the samples in ascending order, so any
// change to that order, to the resampling or to the quantile arithmetic
// moves these values.
func TestBootstrapQuantileCIPinned(t *testing.T) {
	r := NewLatencyRecorder(5000)
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 5000; i++ {
		_ = r.Observe(rng.ExpFloat64())
	}
	ci, err := BootstrapQuantileCI(r, 0.99, 200, 0.95, 30)
	if err != nil {
		t.Fatalf("BootstrapQuantileCI: %v", err)
	}
	want := QuantileCI{Point: 4.458144967012138, Lo: 4.146965488155584, Hi: 4.877551347549511}
	if ci != want {
		t.Errorf("CI = %+v, want %+v", ci, want)
	}
}

func TestBootstrapQuantileCIShrinksWithSamples(t *testing.T) {
	width := func(n int) float64 {
		r := NewLatencyRecorder(n)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < n; i++ {
			_ = r.Observe(rng.ExpFloat64())
		}
		ci, err := BootstrapQuantileCI(r, 0.99, 200, 0.95, 4)
		if err != nil {
			t.Fatalf("BootstrapQuantileCI: %v", err)
		}
		return ci.Hi - ci.Lo
	}
	small, big := width(1000), width(16000)
	if big >= small {
		t.Errorf("CI width grew with samples: %v (n=1k) -> %v (n=16k)", small, big)
	}
}

func TestBootstrapQuantileCIMOutOfN(t *testing.T) {
	// Recorder larger than the 20k resample cap still works and covers.
	r := NewLatencyRecorder(60000)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 60000; i++ {
		_ = r.Observe(rng.ExpFloat64())
	}
	ci, err := BootstrapQuantileCI(r, 0.99, 100, 0.9, 6)
	if err != nil {
		t.Fatalf("BootstrapQuantileCI: %v", err)
	}
	truth := math.Log(100)
	if ci.Lo > truth || ci.Hi < truth {
		t.Errorf("m-out-of-n CI [%v, %v] misses %v", ci.Lo, ci.Hi, truth)
	}
}

func TestBootstrapQuantileCIValidation(t *testing.T) {
	if _, err := BootstrapQuantileCI(nil, 0.99, 100, 0.95, 1); err == nil {
		t.Error("nil recorder succeeded")
	}
	r := NewLatencyRecorder(0)
	if _, err := BootstrapQuantileCI(r, 0.99, 100, 0.95, 1); err == nil {
		t.Error("empty recorder succeeded")
	}
	_ = r.Observe(1)
	if _, err := BootstrapQuantileCI(r, 0.99, 5, 0.95, 1); err == nil {
		t.Error("too few resamples succeeded")
	}
	if _, err := BootstrapQuantileCI(r, 0.99, 100, 1.5, 1); err == nil {
		t.Error("bad confidence succeeded")
	}
	if _, err := BootstrapQuantileCI(r, 1.5, 100, 0.95, 1); err == nil {
		t.Error("bad quantile succeeded")
	}
}
