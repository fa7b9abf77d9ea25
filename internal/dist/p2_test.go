package dist

import (
	"math"
	"math/rand"
	"testing"
)

func TestP2QuantileValidation(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		if _, err := NewP2Quantile(p); err == nil {
			t.Errorf("NewP2Quantile(%v) succeeded, want error", p)
		}
	}
	e, err := NewP2Quantile(0.99)
	if err != nil {
		t.Fatalf("NewP2Quantile: %v", err)
	}
	if got := e.P(); got != 0.99 {
		t.Errorf("P() = %v", got)
	}
	if _, err := e.Quantile(); err == nil {
		t.Error("Quantile on empty succeeded, want error")
	}
	if err := e.Add(math.NaN()); err == nil {
		t.Error("Add(NaN) succeeded, want error")
	}
}

func TestP2QuantileSmallCounts(t *testing.T) {
	e, _ := NewP2Quantile(0.5)
	for _, v := range []float64{5, 1, 3} {
		if err := e.Add(v); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	q, err := e.Quantile()
	if err != nil {
		t.Fatalf("Quantile: %v", err)
	}
	if q != 3 {
		t.Errorf("median of {1,3,5} = %v, want 3", q)
	}
	if e.Count() != 3 {
		t.Errorf("Count = %d", e.Count())
	}
}

// TestP2QuantileAccuracy compares the streaming estimate against exact
// quantiles on distributions of very different shape.
func TestP2QuantileAccuracy(t *testing.T) {
	exp, _ := NewExponential(1)
	u, _ := NewUniform(2, 9)
	cases := []struct {
		name string
		d    Distribution
		tol  float64
	}{
		{"exponential", exp, 0.05},
		{"xapian", MustTailbenchWorkload("xapian").ServiceTime, 0.10},
		{"uniform", u, 0.02},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range []float64{0.5, 0.9, 0.99} {
				e, err := NewP2Quantile(p)
				if err != nil {
					t.Fatalf("NewP2Quantile: %v", err)
				}
				rng := rand.New(rand.NewSource(7))
				for i := 0; i < 200000; i++ {
					if err := e.Add(tc.d.Sample(rng)); err != nil {
						t.Fatalf("Add: %v", err)
					}
				}
				got, err := e.Quantile()
				if err != nil {
					t.Fatalf("Quantile: %v", err)
				}
				want := tc.d.Quantile(p)
				if math.Abs(got-want)/want > tc.tol {
					t.Errorf("p=%v: estimate %v, exact %v", p, got, want)
				}
			}
		})
	}
}

// TestP2QuantileVsOnlineCDF confirms the two streaming estimators agree,
// since P2Quantile is offered as the low-memory substitute.
func TestP2QuantileVsOnlineCDF(t *testing.T) {
	w := MustTailbenchWorkload("xapian")
	e, _ := NewP2Quantile(0.99)
	o := NewOnlineCDF(OnlineCDFConfig{})
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 150000; i++ {
		v := w.ServiceTime.Sample(rng)
		if err := e.Add(v); err != nil {
			t.Fatalf("Add: %v", err)
		}
		if err := o.Add(v); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	p2, err := e.Quantile()
	if err != nil {
		t.Fatalf("Quantile: %v", err)
	}
	hist := o.Quantile(0.99)
	if math.Abs(p2-hist)/hist > 0.06 {
		t.Errorf("P2 %v vs OnlineCDF %v disagree > 6%%", p2, hist)
	}
}

// TestP2QuantileMonotoneInput is the algorithm's classic stress case.
func TestP2QuantileMonotoneInput(t *testing.T) {
	e, _ := NewP2Quantile(0.9)
	for i := 1; i <= 100000; i++ {
		if err := e.Add(float64(i)); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	got, err := e.Quantile()
	if err != nil {
		t.Fatalf("Quantile: %v", err)
	}
	if math.Abs(got-90000)/90000 > 0.05 {
		t.Errorf("p90 of 1..100000 = %v, want ~90000", got)
	}
}
