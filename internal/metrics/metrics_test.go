package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestLatencyRecorderBasics(t *testing.T) {
	r := NewLatencyRecorder(4)
	for _, v := range []float64{3, 1, 4, 1, 5} {
		if err := r.Observe(v); err != nil {
			t.Fatalf("Observe(%v): %v", v, err)
		}
	}
	if got := r.Count(); got != 5 {
		t.Errorf("Count() = %d, want 5", got)
	}
	if got := r.Mean(); math.Abs(got-2.8) > 1e-12 {
		t.Errorf("Mean() = %v, want 2.8", got)
	}
	if got := r.Max(); got != 5 {
		t.Errorf("Max() = %v, want 5", got)
	}
	med, err := r.Quantile(0.5)
	if err != nil {
		t.Fatalf("Quantile: %v", err)
	}
	if med != 3 {
		t.Errorf("median = %v, want 3", med)
	}
	q0, _ := r.Quantile(0)
	q1, _ := r.Quantile(1)
	if q0 != 1 || q1 != 5 {
		t.Errorf("Quantile(0)=%v Quantile(1)=%v, want 1 and 5", q0, q1)
	}
}

func TestLatencyRecorderInvalid(t *testing.T) {
	r := NewLatencyRecorder(0)
	if err := r.Observe(-1); err == nil {
		t.Error("Observe(-1) succeeded, want error")
	}
	if err := r.Observe(math.NaN()); err == nil {
		t.Error("Observe(NaN) succeeded, want error")
	}
	if _, err := r.Quantile(0.5); err == nil {
		t.Error("Quantile on empty succeeded, want error")
	}
	_ = r.Observe(1)
	if _, err := r.Quantile(1.5); err == nil {
		t.Error("Quantile(1.5) succeeded, want error")
	}
}

func TestLatencyRecorderObserveAfterQuantile(t *testing.T) {
	r := NewLatencyRecorder(0)
	_ = r.Observe(10)
	_ = r.Observe(20)
	if _, err := r.Quantile(0.5); err != nil {
		t.Fatalf("Quantile: %v", err)
	}
	// A sample observed after a quantile query must count in the next one.
	_ = r.Observe(1)
	q, err := r.Quantile(0)
	if err != nil {
		t.Fatalf("Quantile: %v", err)
	}
	if q != 1 {
		t.Errorf("Quantile(0) = %v after late observe, want 1", q)
	}
}

func TestLatencyRecorderReset(t *testing.T) {
	r := NewLatencyRecorder(0)
	_ = r.Observe(5)
	r.Reset()
	if r.Count() != 0 || r.Mean() != 0 || r.Max() != 0 {
		t.Errorf("Reset left state: count=%d mean=%v max=%v", r.Count(), r.Mean(), r.Max())
	}
}

func TestLatencyRecorderP99MatchesDistribution(t *testing.T) {
	r := NewLatencyRecorder(100000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		_ = r.Observe(rng.ExpFloat64())
	}
	p99, err := r.P99()
	if err != nil {
		t.Fatalf("P99: %v", err)
	}
	want := -math.Log(0.01) // exponential(1) p99
	if math.Abs(p99-want)/want > 0.05 {
		t.Errorf("P99 = %v, want ~%v", p99, want)
	}
}

// Property: quantile is monotone in p and bounded by [min, max].
func TestQuantileMonotoneProperty(t *testing.T) {
	r := NewLatencyRecorder(0)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		_ = r.Observe(rng.Float64() * 100)
	}
	prop := func(a, b float64) bool {
		p, q := math.Mod(math.Abs(a), 1), math.Mod(math.Abs(b), 1)
		if p > q {
			p, q = q, p
		}
		vp, err1 := r.Quantile(p)
		vq, err2 := r.Quantile(q)
		return err1 == nil && err2 == nil && vp <= vq+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Errorf("quantile monotonicity violated: %v", err)
	}
}

// sortedQuantile is the reference Quantile selects against: sort a copy,
// then interpolate between order statistics i and i+1.
func sortedQuantile(samples []float64, p float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	i, frac := rank(n, p)
	if i >= n-1 {
		return s[n-1]
	}
	return s[i] + frac*(s[i+1]-s[i])
}

// TestQuantileSelectionMatchesSort: selecting the order statistics gives
// every quantile bit for bit what sorting gives. The inputs cover random,
// duplicate-heavy, +Inf-laden, sorted and reversed samples at sizes from
// 1 to 10^4; p covers 0, 1, a grid, and the exact rank boundaries j/(n-1);
// one recorder answers every p in turn, so later queries run on the order
// earlier ones left; and samples observed after a query count in the next.
func TestQuantileSelectionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	kinds := []struct {
		name string
		gen  func(i, n int) float64
	}{
		{"random", func(int, int) float64 { return rng.ExpFloat64() }},
		{"duplicates", func(int, int) float64 { return float64(rng.Intn(4)) }},
		{"constant", func(int, int) float64 { return 2.5 }},
		{"inf", func(int, int) float64 {
			if rng.Intn(8) == 0 {
				return math.Inf(1)
			}
			return rng.Float64()
		}},
		{"ascending", func(i, _ int) float64 { return float64(i) }},
		{"descending", func(i, n int) float64 { return float64(n - i) }},
	}
	var sizes []int
	for n := 1; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 100, 257, 1000, 4096, 10000)
	grid := []float64{0, 1e-9, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999, 1 - 1e-12, 1}
	check := func(name string, r *LatencyRecorder, ps []float64) {
		t.Helper()
		for _, p := range ps {
			want := sortedQuantile(r.samples, p)
			got, err := r.Quantile(p)
			if err != nil {
				t.Fatalf("%s: Quantile(%v): %v", name, p, err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Quantile(%v) = %v, sort gives %v", name, p, got, want)
			}
		}
	}
	for _, kind := range kinds {
		gen := kind.gen
		for _, n := range sizes {
			name := fmt.Sprintf("%s n=%d", kind.name, n)
			r := NewLatencyRecorder(n)
			for i := 0; i < n; i++ {
				if err := r.Observe(gen(i, n)); err != nil {
					t.Fatalf("%s: Observe: %v", name, err)
				}
			}
			before := ascending(r.Samples())
			ps := append([]float64(nil), grid...)
			if n > 1 {
				for _, j := range []int{0, 1, n / 3, n / 2, n - 2, n - 1} {
					ps = append(ps, float64(j)/float64(n-1))
				}
			}
			check(name, r, ps)
			if after := ascending(r.Samples()); !reflect.DeepEqual(before, after) {
				t.Fatalf("%s: quantile queries changed the sample multiset", name)
			}
			for i := 0; i < 1+n/10; i++ {
				if err := r.Observe(gen(i, n)); err != nil {
					t.Fatalf("%s: Observe: %v", name, err)
				}
			}
			check(name+" after Observe", r, []float64{0.99, 0.5, 0, 1})
		}
	}
}

// ascending sorts s in place and returns it.
func ascending(s []float64) []float64 {
	sort.Float64s(s)
	return s
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown[int](8)
	_ = b.Observe(1, 10)
	_ = b.Observe(1, 20)
	_ = b.Observe(100, 500)
	if got := b.Len(); got != 2 {
		t.Errorf("Len() = %d, want 2", got)
	}
	if got := b.Total(); got != 3 {
		t.Errorf("Total() = %d, want 3", got)
	}
	if r := b.Recorder(1); r == nil || r.Count() != 2 {
		t.Errorf("Recorder(1) wrong: %+v", r)
	}
	if r := b.Recorder(7); r != nil {
		t.Errorf("Recorder(7) = %+v, want nil", r)
	}
	keys := IntKeys(b)
	if len(keys) != 2 || keys[0] != 1 || keys[1] != 100 {
		t.Errorf("IntKeys = %v, want [1 100]", keys)
	}
	var visited int
	b.Each(func(k int, r *LatencyRecorder) { visited += r.Count() })
	if visited != 3 {
		t.Errorf("Each visited %d samples, want 3", visited)
	}
	b.Reset()
	if b.Len() != 0 {
		t.Errorf("Len after Reset = %d, want 0", b.Len())
	}
}

// Keys live in first-observation order and nowhere else: Reset forgets
// them (a reused breakdown starts a new order, with no stale samples
// under a key it has seen before) and a warm Reset + Observe cycle
// allocates nothing.
func TestBreakdownResetForgetsKeysAndReusesRecorders(t *testing.T) {
	type key struct{ class, fanout int }
	a, b, c := key{0, 1}, key{0, 100}, key{1, 1}
	order := func(bd *Breakdown[key]) (keys []key, counts []int) {
		bd.Each(func(k key, r *LatencyRecorder) {
			keys = append(keys, k)
			counts = append(counts, r.Count())
		})
		return keys, counts
	}
	bd := NewBreakdown[key](4)
	for _, k := range []key{a, b, a, c, a} {
		if err := bd.Observe(k, 1); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	if keys, counts := order(bd); !reflect.DeepEqual(keys, []key{a, b, c}) || !reflect.DeepEqual(counts, []int{3, 1, 1}) {
		t.Errorf("Each order = %v counts %v, want [a b c] [3 1 1]", keys, counts)
	}
	bd.Reset()
	if bd.Recorder(a) != nil || bd.Len() != 0 || bd.Total() != 0 {
		t.Errorf("after Reset: Recorder(a) = %v, Len %d, Total %d; want nil, 0, 0", bd.Recorder(a), bd.Len(), bd.Total())
	}
	_ = bd.Observe(c, 2)
	_ = bd.Observe(a, 3)
	if keys, counts := order(bd); !reflect.DeepEqual(keys, []key{c, a}) || !reflect.DeepEqual(counts, []int{1, 1}) {
		t.Errorf("Each order after Reset = %v counts %v, want [c a] [1 1]", keys, counts)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		bd.Reset()
		_ = bd.Observe(b, 1)
		_ = bd.Observe(a, 1)
		_ = bd.Observe(b, 1)
	}); allocs != 0 {
		t.Errorf("warm Reset + Observe cycle allocated %v times, want 0", allocs)
	}
}

// TestBreakdownResetReturnsEachKeyItsRecorder pins the freelist order: a
// round that observes the same keys in the same order as the last one
// gets every key its own recorder (and so its own sample capacity) back,
// and three such rounds allocate nothing.
func TestBreakdownResetReturnsEachKeyItsRecorder(t *testing.T) {
	keys := []int{1, 10, 100}
	sizes := []int{500, 50, 5} // per-key samples: capacities differ by key
	bd := NewBreakdown[int](0)
	round := func() {
		for i, k := range keys {
			for j := 0; j < sizes[i]; j++ {
				_ = bd.Observe(k, 1)
			}
		}
	}
	round()
	owner := make([]*LatencyRecorder, len(keys))
	for i, k := range keys {
		owner[i] = bd.Recorder(k)
	}
	// The first Reset grows the freelist itself; the three rounds after it
	// are the ones that must not allocate.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var moved [4]int
	var before, after runtime.MemStats
	for r := range moved {
		if r == 1 {
			runtime.ReadMemStats(&before)
		}
		bd.Reset()
		round()
		for i, k := range keys {
			if bd.Recorder(k) != owner[i] {
				moved[r]++
			}
		}
	}
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Errorf("three Reset + Observe rounds allocated %d times, want 0", allocs)
	}
	for r, m := range moved {
		if m != 0 {
			t.Errorf("round %d: %d keys got another key's recorder after Reset, want 0", r+1, m)
		}
	}
}

func TestBreakdownStringKeys(t *testing.T) {
	b := NewBreakdown[string](0)
	_ = b.Observe("xapian", 1)
	_ = b.Observe("masstree", 2)
	keys := StringKeys(b)
	if len(keys) != 2 || keys[0] != "masstree" || keys[1] != "xapian" {
		t.Errorf("StringKeys = %v, want [masstree xapian]", keys)
	}
}

func TestBusyMeter(t *testing.T) {
	b, err := NewBusyMeter(2, 100)
	if err != nil {
		t.Fatalf("NewBusyMeter: %v", err)
	}
	if err := b.AddBusy(0, 30); err != nil {
		t.Fatalf("AddBusy: %v", err)
	}
	if err := b.AddBusy(1, 10); err != nil {
		t.Fatalf("AddBusy: %v", err)
	}
	b.Advance(150)
	// 40 busy over 2 servers * 50 elapsed = 0.4.
	if got := b.Utilization(); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("Utilization() = %v, want 0.4", got)
	}
	per := b.PerServer()
	if math.Abs(per[0]-0.6) > 1e-12 || math.Abs(per[1]-0.2) > 1e-12 {
		t.Errorf("PerServer() = %v, want [0.6 0.2]", per)
	}
	// Advance is monotone: moving backwards is a no-op.
	b.Advance(120)
	if got := b.Utilization(); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("Utilization() after backward Advance = %v, want 0.4", got)
	}
}

func TestBusyMeterInvalid(t *testing.T) {
	if _, err := NewBusyMeter(0, 0); err == nil {
		t.Error("NewBusyMeter(0) succeeded, want error")
	}
	b, _ := NewBusyMeter(1, 0)
	if err := b.AddBusy(5, 1); err == nil {
		t.Error("AddBusy out of range succeeded, want error")
	}
	if err := b.AddBusy(0, -1); err == nil {
		t.Error("AddBusy negative succeeded, want error")
	}
	if got := b.Utilization(); got != 0 {
		t.Errorf("Utilization with zero elapsed = %v, want 0", got)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter(10)
	if got := c.Rate(10); got != 0 {
		t.Errorf("Rate at start = %v, want 0", got)
	}
	for i := 0; i < 20; i++ {
		c.Inc()
	}
	if got := c.Count(); got != 20 {
		t.Errorf("Count() = %d, want 20", got)
	}
	if got := c.Rate(20); math.Abs(got-2) > 1e-12 {
		t.Errorf("Rate(20) = %v, want 2", got)
	}
}
