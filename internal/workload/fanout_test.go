package workload

import (
	"math"
	"math/rand"
	"testing"
)

func TestFixedFanout(t *testing.T) {
	f, err := NewFixed(100)
	if err != nil {
		t.Fatalf("NewFixed: %v", err)
	}
	if got := f.Sample(nil); got != 100 {
		t.Errorf("Sample() = %d, want 100", got)
	}
	if got := f.MeanTasks(); got != 100 {
		t.Errorf("MeanTasks() = %v, want 100", got)
	}
	if got := f.Prob(100); got != 1 {
		t.Errorf("Prob(100) = %v, want 1", got)
	}
	if got := f.Prob(10); got != 0 {
		t.Errorf("Prob(10) = %v, want 0", got)
	}
	if got := f.Max(); got != 100 {
		t.Errorf("Max() = %d, want 100", got)
	}
	if _, err := NewFixed(0); err == nil {
		t.Error("NewFixed(0) succeeded, want error")
	}
}

// TestInverseProportionalPaperMix verifies the paper's Section IV.B fanout
// model: P(1)=100/111, P(10)=10/111, P(100)=1/111, so each fanout
// contributes the same expected task count.
func TestInverseProportionalPaperMix(t *testing.T) {
	w, err := NewInverseProportional([]int{1, 10, 100})
	if err != nil {
		t.Fatalf("NewInverseProportional: %v", err)
	}
	wants := map[int]float64{1: 100.0 / 111, 10: 10.0 / 111, 100: 1.0 / 111}
	for k, want := range wants {
		if got := w.Prob(k); math.Abs(got-want) > 1e-12 {
			t.Errorf("Prob(%d) = %v, want %v", k, got, want)
		}
	}
	// E[kf] = 3*100/111 = 300/111.
	if got, want := w.MeanTasks(), 300.0/111; math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanTasks() = %v, want %v", got, want)
	}
	// Each fanout contributes k*P(k) = 100/111 expected tasks.
	for k := range wants {
		contrib := float64(k) * w.Prob(k)
		if math.Abs(contrib-100.0/111) > 1e-12 {
			t.Errorf("fanout %d task contribution = %v, want %v", k, contrib, 100.0/111)
		}
	}
	sup := w.Support()
	if len(sup) != 3 || sup[0] != 1 || sup[1] != 10 || sup[2] != 100 {
		t.Errorf("Support() = %v, want [1 10 100]", sup)
	}
	if got := w.Max(); got != 100 {
		t.Errorf("Max() = %d, want 100", got)
	}
}

func TestWeightedSamplingProportions(t *testing.T) {
	w, err := NewWeighted([]int{2, 8}, []float64{3, 1})
	if err != nil {
		t.Fatalf("NewWeighted: %v", err)
	}
	r := rand.New(rand.NewSource(1))
	counts := map[int]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[w.Sample(r)]++
	}
	if frac := float64(counts[2]) / n; math.Abs(frac-0.75) > 0.01 {
		t.Errorf("P(2) sampled = %v, want ~0.75", frac)
	}
	if counts[2]+counts[8] != n {
		t.Errorf("sampled values outside support: %v", counts)
	}
}

func TestWeightedInvalid(t *testing.T) {
	cases := []struct {
		name    string
		fanouts []int
		weights []float64
	}{
		{"empty", nil, nil},
		{"mismatch", []int{1}, []float64{1, 2}},
		{"zero fanout", []int{0}, []float64{1}},
		{"negative weight", []int{1}, []float64{-1}},
		{"zero sum", []int{1, 2}, []float64{0, 0}},
		{"duplicate", []int{3, 3}, []float64{1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewWeighted(tc.fanouts, tc.weights); err == nil {
				t.Errorf("NewWeighted(%v, %v) succeeded, want error", tc.fanouts, tc.weights)
			}
		})
	}
	if _, err := NewInverseProportional([]int{0}); err == nil {
		t.Error("NewInverseProportional([0]) succeeded, want error")
	}
}

func TestZipf(t *testing.T) {
	z, err := NewZipf(10, 1.0)
	if err != nil {
		t.Fatalf("NewZipf: %v", err)
	}
	// P(1)/P(2) = 2 for s=1.
	if got := z.Prob(1) / z.Prob(2); math.Abs(got-2) > 1e-9 {
		t.Errorf("P(1)/P(2) = %v, want 2", got)
	}
	if got := z.Max(); got != 10 {
		t.Errorf("Max() = %d, want 10", got)
	}
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("NewZipf(0, 1) succeeded, want error")
	}
	if _, err := NewZipf(5, 0); err == nil {
		t.Error("NewZipf(5, 0) succeeded, want error")
	}
}
