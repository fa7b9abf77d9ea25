package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// sampleMean draws n samples and returns their mean.
func sampleMean(t *testing.T, d Distribution, n int, seed int64) float64 {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var sum float64
	for i := 0; i < n; i++ {
		v := d.Sample(r)
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("Sample returned invalid value %v", v)
		}
		sum += v
	}
	return sum / float64(n)
}

func TestDeterministic(t *testing.T) {
	d := Deterministic{V: 3.5}
	if got := d.CDF(3.4); got != 0 {
		t.Errorf("CDF(3.4) = %v, want 0", got)
	}
	if got := d.CDF(3.5); got != 1 {
		t.Errorf("CDF(3.5) = %v, want 1", got)
	}
	if got := d.Quantile(0.99); got != 3.5 {
		t.Errorf("Quantile(0.99) = %v, want 3.5", got)
	}
	if got := d.Mean(); got != 3.5 {
		t.Errorf("Mean() = %v, want 3.5", got)
	}
}

func TestUniform(t *testing.T) {
	u, err := NewUniform(1, 3)
	if err != nil {
		t.Fatalf("NewUniform: %v", err)
	}
	tests := []struct {
		t, want float64
	}{
		{0.5, 0}, {1, 0}, {2, 0.5}, {3, 1}, {4, 1},
	}
	for _, tc := range tests {
		if got := u.CDF(tc.t); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("CDF(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	if got := u.Quantile(0.25); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Quantile(0.25) = %v, want 1.5", got)
	}
	if got := u.Mean(); got != 2 {
		t.Errorf("Mean() = %v, want 2", got)
	}
	if m := sampleMean(t, u, 20000, 1); math.Abs(m-2) > 0.02 {
		t.Errorf("sample mean = %v, want ~2", m)
	}
}

func TestUniformInvalid(t *testing.T) {
	if _, err := NewUniform(3, 1); err == nil {
		t.Error("NewUniform(3, 1) succeeded, want error")
	}
}

func TestExponential(t *testing.T) {
	e, err := NewExponential(2)
	if err != nil {
		t.Fatalf("NewExponential: %v", err)
	}
	if got := e.Mean(); got != 2 {
		t.Errorf("Mean() = %v, want 2", got)
	}
	// Median of Exp(mean 2) is 2*ln 2.
	if got, want := e.Quantile(0.5), 2*math.Ln2; math.Abs(got-want) > 1e-12 {
		t.Errorf("Quantile(0.5) = %v, want %v", got, want)
	}
	// CDF(Quantile(p)) == p.
	for _, p := range []float64{0.01, 0.5, 0.9, 0.99, 0.9999} {
		if got := e.CDF(e.Quantile(p)); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	if m := sampleMean(t, e, 50000, 2); math.Abs(m-2) > 0.05 {
		t.Errorf("sample mean = %v, want ~2", m)
	}
}

func TestExponentialInvalid(t *testing.T) {
	if _, err := NewExponential(0); err == nil {
		t.Error("NewExponential(0) succeeded, want error")
	}
	if _, err := NewExponential(-1); err == nil {
		t.Error("NewExponential(-1) succeeded, want error")
	}
}

func TestShiftedAndScaled(t *testing.T) {
	e, _ := NewExponential(1)
	s := Shifted{D: e, Offset: 5}
	if got := s.Mean(); math.Abs(got-6) > 1e-12 {
		t.Errorf("Shifted.Mean() = %v, want 6", got)
	}
	if got := s.Quantile(0.5); math.Abs(got-(5+math.Ln2)) > 1e-12 {
		t.Errorf("Shifted.Quantile(0.5) = %v", got)
	}
	if got := s.CDF(5 + math.Ln2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Shifted.CDF = %v, want 0.5", got)
	}

	sc, err := NewScaled(e, 3)
	if err != nil {
		t.Fatalf("NewScaled: %v", err)
	}
	if got := sc.Mean(); math.Abs(got-3) > 1e-12 {
		t.Errorf("Scaled.Mean() = %v, want 3", got)
	}
	if got := sc.CDF(sc.Quantile(0.9)); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("Scaled CDF/Quantile roundtrip = %v", got)
	}
	if _, err := NewScaled(e, 0); err == nil {
		t.Error("NewScaled(e, 0) succeeded, want error")
	}
}

// Property: for every parametric distribution, CDF is monotone and the
// quantile function is its (generalized) inverse.
func TestQuantileCDFInverseProperty(t *testing.T) {
	e, _ := NewExponential(1.3)
	u, _ := NewUniform(0.1, 9)
	dists := map[string]Distribution{"exp": e, "uniform": u}
	for name, d := range dists {
		d := d
		prop := func(raw float64) bool {
			p := math.Mod(math.Abs(raw), 1)
			q := d.Quantile(p)
			if math.IsInf(q, 1) {
				return p == 1
			}
			c := d.CDF(q)
			return c+1e-7 >= p
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: CDF(Quantile(p)) >= p violated: %v", name, err)
		}
		propMono := func(a, b float64) bool {
			x, y := math.Abs(a), math.Abs(b)
			if x > y {
				x, y = y, x
			}
			return d.CDF(x) <= d.CDF(y)+1e-12
		}
		if err := quick.Check(propMono, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: CDF monotonicity violated: %v", name, err)
		}
	}
}
