package dist

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestOnlineCDFEmpty(t *testing.T) {
	o := NewOnlineCDF(OnlineCDFConfig{})
	if got := o.Count(); got != 0 {
		t.Errorf("Count() = %v, want 0", got)
	}
	if got := o.CDF(1); got != 0 {
		t.Errorf("CDF on empty = %v, want 0", got)
	}
	if got := o.Quantile(0.5); got != 0 {
		t.Errorf("Quantile on empty = %v, want 0", got)
	}
	if _, err := o.Snapshot(32); err == nil {
		t.Error("Snapshot of empty online CDF succeeded, want error")
	}
}

func TestOnlineCDFInvalidAdd(t *testing.T) {
	o := NewOnlineCDF(OnlineCDFConfig{})
	if err := o.Add(-1); err == nil {
		t.Error("Add(-1) succeeded, want error")
	}
	if err := o.Add(math.NaN()); err == nil {
		t.Error("Add(NaN) succeeded, want error")
	}
}

func TestOnlineCDFRecoversExponential(t *testing.T) {
	o := NewOnlineCDF(OnlineCDFConfig{})
	exp, _ := NewExponential(2)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		if err := o.Add(exp.Sample(r)); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		got, want := o.Quantile(p), exp.Quantile(p)
		if math.Abs(got-want)/want > 0.06 {
			t.Errorf("Quantile(%v) = %v, want ~%v", p, got, want)
		}
	}
	if got := o.Mean(); math.Abs(got-2) > 0.05 {
		t.Errorf("Mean() = %v, want ~2", got)
	}
	// Round trip through CDF.
	for _, p := range []float64{0.5, 0.9, 0.99} {
		q := o.Quantile(p)
		if c := o.CDF(q); math.Abs(c-p) > 0.02 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, c)
		}
	}
}

func TestOnlineCDFDecayTracksDrift(t *testing.T) {
	// Feed a slow regime, then a fast one; with decay the quantiles must
	// follow the new regime (the paper's heterogeneity/drift adaptation).
	o := NewOnlineCDF(OnlineCDFConfig{HalfLife: 2000, DecayInterval: 256})
	slow := Deterministic{V: 100}
	fast := Deterministic{V: 1}
	for i := 0; i < 20000; i++ {
		if err := o.Add(slow.Sample(nil)); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if got := o.Quantile(0.99); got < 90 {
		t.Fatalf("pre-drift Quantile(0.99) = %v, want ~100", got)
	}
	for i := 0; i < 40000; i++ {
		if err := o.Add(fast.Sample(nil)); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if got := o.Quantile(0.99); got > 2 {
		t.Errorf("post-drift Quantile(0.99) = %v, want ~1 (decay failed to track)", got)
	}
}

func TestOnlineCDFNoDecayRemembers(t *testing.T) {
	o := NewOnlineCDF(OnlineCDFConfig{})
	for i := 0; i < 1000; i++ {
		_ = o.Add(100)
	}
	for i := 0; i < 1000; i++ {
		_ = o.Add(1)
	}
	// Without decay the median sits between the modes and p99 stays high.
	if got := o.Quantile(0.99); got < 90 {
		t.Errorf("Quantile(0.99) = %v, want ~100 without decay", got)
	}
}

func TestOnlineCDFVersionAdvances(t *testing.T) {
	o := NewOnlineCDF(OnlineCDFConfig{DecayInterval: 64})
	v0 := o.Version()
	for i := 0; i < 1000; i++ {
		_ = o.Add(1)
	}
	if o.Version() == v0 {
		t.Error("Version() did not advance after 1000 adds")
	}
}

func TestOnlineCDFSeed(t *testing.T) {
	o := NewOnlineCDF(OnlineCDFConfig{})
	exp, _ := NewExponential(3)
	if err := o.Seed(exp, 10000); err != nil {
		t.Fatalf("Seed: %v", err)
	}
	if got := o.Count(); math.Abs(got-10000) > 1 {
		t.Errorf("Count() = %v, want 10000", got)
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		got, want := o.Quantile(p), exp.Quantile(p)
		if math.Abs(got-want)/want > 0.06 {
			t.Errorf("seeded Quantile(%v) = %v, want ~%v", p, got, want)
		}
	}
	if err := o.Seed(exp, 0); err == nil {
		t.Error("Seed(d, 0) succeeded, want error")
	}
}

func TestOnlineCDFSnapshot(t *testing.T) {
	o := NewOnlineCDF(OnlineCDFConfig{})
	exp, _ := NewExponential(1)
	if err := o.Seed(exp, 50000); err != nil {
		t.Fatalf("Seed: %v", err)
	}
	tbl, err := o.Snapshot(64)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		got, want := tbl.Quantile(p), exp.Quantile(p)
		if math.Abs(got-want)/want > 0.1 {
			t.Errorf("snapshot Quantile(%v) = %v, want ~%v", p, got, want)
		}
	}
	if _, err := o.Snapshot(1); err == nil {
		t.Error("Snapshot(1) succeeded, want error")
	}
}

func TestOnlineCDFConcurrent(t *testing.T) {
	o := NewOnlineCDF(OnlineCDFConfig{HalfLife: 10000})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			exp, _ := NewExponential(1)
			for i := 0; i < 5000; i++ {
				_ = o.Add(exp.Sample(r))
				if i%100 == 0 {
					_ = o.Quantile(0.99)
					_ = o.CDF(1)
					_ = o.Mean()
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if got := o.Quantile(0.5); math.Abs(got-math.Ln2) > 0.15 {
		t.Errorf("median after concurrent adds = %v, want ~%v", got, math.Ln2)
	}
}

func TestOnlineCDFQuantileMemo(t *testing.T) {
	o := NewOnlineCDF(OnlineCDFConfig{DecayInterval: 64})
	for i := 0; i < 63; i++ {
		_ = o.Add(float64(i + 1)) // stays within version 0
	}
	q1 := o.Quantile(0.5)
	if q2 := o.Quantile(0.5); q2 != q1 {
		t.Errorf("memoized Quantile(0.5) = %v, want %v", q2, q1)
	}
	// A single Add invalidates the memo: the memo is a pure cache and
	// must never serve a value the unmemoized scan would not return.
	_ = o.Add(1000)
	if q3 := o.Quantile(0.99); q3 < 500 {
		t.Errorf("post-Add Quantile(0.99) = %v, want ~1000 (stale memo served)", q3)
	}
	v0 := o.Version()
	for i := 0; i < 64; i++ {
		_ = o.Add(1000)
	}
	if o.Version() == v0 {
		t.Fatal("Version() did not advance")
	}
	if q4 := o.Quantile(0.99); q4 < 500 {
		t.Errorf("post-bump Quantile(0.99) = %v, want ~1000 (stale memo served)", q4)
	}
	// The memo stays bounded under many distinct probabilities.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 4*quantileMemoMax; i++ {
		_ = o.Quantile(r.Float64())
	}
	o.mu.Lock()
	if len(o.qmemo) > quantileMemoMax {
		t.Errorf("memo grew to %d entries, cap is %d", len(o.qmemo), quantileMemoMax)
	}
	o.mu.Unlock()
}

func TestOnlineCDFClampedRange(t *testing.T) {
	o := NewOnlineCDF(OnlineCDFConfig{Min: 1, Max: 100})
	_ = o.Add(0.001) // below min: clamped into first bucket
	_ = o.Add(1e9)   // above max: clamped into last bucket
	if got := o.Count(); got != 2 {
		t.Errorf("Count() = %v, want 2", got)
	}
	if q := o.Quantile(0.25); q > 1.2 {
		t.Errorf("low quantile = %v, want near Min", q)
	}
}

// TestOnlineCDFPrefixSumsMatchScan pins that CDF's cached prefix sums give
// the bits the per-call scan over the buckets gives, across Adds (which
// invalidate the sums) and decay sweeps (which rescale every bucket).
func TestOnlineCDFPrefixSumsMatchScan(t *testing.T) {
	o := NewOnlineCDF(OnlineCDFConfig{HalfLife: 500, DecayInterval: 64})
	scan := func(x float64) float64 {
		o.mu.RLock()
		defer o.mu.RUnlock()
		if o.total == 0 || x < o.cfg.Min {
			return 0
		}
		b := o.bucketLocked(x)
		var c float64
		for i := 0; i < b; i++ {
			c += o.counts[i]
		}
		lo, hi := o.bucketLow(b), o.bucketLow(b+1)
		frac := 1.0
		if hi > lo {
			frac = math.Min(1, math.Max(0, (x-lo)/(hi-lo)))
		}
		c += o.counts[b] * frac
		return math.Min(1, c/o.total)
	}
	exp, _ := NewExponential(1)
	r := rand.New(rand.NewSource(3))
	probes := []float64{1e-4, 1e-3, 0.01, 0.3, 0.69, 1, 2.5, 7, 40, 1e7}
	for i := 0; i < 1000; i++ {
		if err := o.Add(exp.Sample(r)); err != nil {
			t.Fatalf("Add: %v", err)
		}
		if i%7 != 0 {
			continue
		}
		for _, x := range probes {
			if got, want := o.CDF(x), scan(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("after %d adds: CDF(%v) = %v, scan gives %v", i+1, x, got, want)
			}
		}
	}
}

// TestOnlineCDFReadsAfterAddAllocationFree pins that the read caches are
// refreshed in place: once built, an Add followed by CDF and Quantile
// reads (the heterogeneous stamp's pattern) allocates nothing.
func TestOnlineCDFReadsAfterAddAllocationFree(t *testing.T) {
	o := NewOnlineCDF(OnlineCDFConfig{HalfLife: 500})
	for i := 0; i < 100; i++ {
		_ = o.Add(float64(i%10) + 0.5)
	}
	var sink float64
	sink += o.CDF(3) + o.Quantile(0.99)
	allocs := testing.AllocsPerRun(200, func() {
		_ = o.Add(2.5)
		sink += o.CDF(3) + o.CDF(7) + o.Quantile(0.99) + o.Quantile(0.5)
	})
	if allocs != 0 {
		t.Fatalf("Add then CDF/Quantile allocated %v per run, want 0", allocs)
	}
	_ = sink
}
