package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func testGenerator(t *testing.T, seed int64) *Generator {
	t.Helper()
	arr, err := NewPoisson(1)
	if err != nil {
		t.Fatalf("NewPoisson: %v", err)
	}
	fan, err := NewInverseProportional([]int{1, 10, 100})
	if err != nil {
		t.Fatalf("NewInverseProportional: %v", err)
	}
	cls, err := TwoClasses(1.0, 1.5)
	if err != nil {
		t.Fatalf("TwoClasses: %v", err)
	}
	g, err := NewGenerator(GeneratorConfig{
		Servers: 100,
		Arrival: arr,
		Fanout:  fan,
		Classes: cls,
	}, seed)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	return g
}

func TestGeneratorProducesValidQueries(t *testing.T) {
	g := testGenerator(t, 1)
	prev := 0.0
	for i := 0; i < 10000; i++ {
		q, _ := g.Next()
		if q.ID != int64(i) {
			t.Fatalf("query %d has ID %d", i, q.ID)
		}
		if q.Arrival <= prev {
			t.Fatalf("arrival times not strictly increasing: %v after %v", q.Arrival, prev)
		}
		prev = q.Arrival
		if q.Fanout != len(q.Servers) {
			t.Fatalf("fanout %d != len(servers) %d", q.Fanout, len(q.Servers))
		}
		if q.Class != 0 && q.Class != 1 {
			t.Fatalf("unexpected class %d", q.Class)
		}
		seen := make(map[int]bool, len(q.Servers))
		for _, s := range q.Servers {
			if s < 0 || s >= 100 {
				t.Fatalf("server index %d out of range", s)
			}
			if seen[s] {
				t.Fatalf("duplicate server %d in placement %v", s, q.Servers)
			}
			seen[s] = true
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	g1 := testGenerator(t, 42)
	g2 := testGenerator(t, 42)
	for i := 0; i < 1000; i++ {
		a, _ := g1.Next()
		b, _ := g2.Next()
		if a.Arrival != b.Arrival || a.Fanout != b.Fanout || a.Class != b.Class {
			t.Fatalf("query %d diverged: %+v vs %+v", i, a, b)
		}
		for j := range a.Servers {
			if a.Servers[j] != b.Servers[j] {
				t.Fatalf("query %d placement diverged", i)
			}
		}
	}
	g3 := testGenerator(t, 43)
	q1, _ := testGenerator(t, 42).Next()
	q3, _ := g3.Next()
	if q1.Arrival == q3.Arrival {
		t.Error("different seeds produced identical first arrival (suspicious)")
	}
}

func TestGeneratorFullFanoutCoversCluster(t *testing.T) {
	arr, _ := NewPoisson(1)
	fan, _ := NewFixed(100)
	cls, _ := SingleClass(1)
	g, err := NewGenerator(GeneratorConfig{Servers: 100, Arrival: arr, Fanout: fan, Classes: cls}, 7)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	q, _ := g.Next()
	if len(q.Servers) != 100 {
		t.Fatalf("fanout-100 query has %d servers", len(q.Servers))
	}
	seen := make(map[int]bool)
	for _, s := range q.Servers {
		seen[s] = true
	}
	if len(seen) != 100 {
		t.Errorf("full fanout placed on %d distinct servers, want 100", len(seen))
	}
}

func TestGeneratorCustomPlacement(t *testing.T) {
	arr, _ := NewPoisson(1)
	fan, _ := NewFixed(2)
	cls, _ := SingleClass(1)
	g, err := NewGenerator(GeneratorConfig{
		Servers: 10,
		Arrival: arr,
		Fanout:  fan,
		Classes: cls,
		Placement: func(r *rand.Rand, fanout int) []int {
			out := make([]int, fanout)
			for i := range out {
				out[i] = i // always the first servers
			}
			return out
		},
	}, 1)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	q, _ := g.Next()
	if q.Servers[0] != 0 || q.Servers[1] != 1 {
		t.Errorf("custom placement ignored: %v", q.Servers)
	}
}

func TestGeneratorValidation(t *testing.T) {
	arr, _ := NewPoisson(1)
	fan, _ := NewFixed(10)
	cls, _ := SingleClass(1)
	cases := []struct {
		name string
		cfg  GeneratorConfig
	}{
		{"no servers", GeneratorConfig{Servers: 0, Arrival: arr, Fanout: fan, Classes: cls}},
		{"nil arrival", GeneratorConfig{Servers: 10, Fanout: fan, Classes: cls}},
		{"nil fanout", GeneratorConfig{Servers: 10, Arrival: arr, Classes: cls}},
		{"nil classes", GeneratorConfig{Servers: 10, Arrival: arr, Fanout: fan}},
		{"fanout exceeds cluster", GeneratorConfig{Servers: 5, Arrival: arr, Fanout: fan, Classes: cls}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewGenerator(tc.cfg, 1); err == nil {
				t.Errorf("NewGenerator succeeded, want error")
			}
		})
	}
}

func TestGeneratorArrivalRateMatchesLoad(t *testing.T) {
	// The load conversion must make busy-time bookkeeping come out right:
	// lambda = rho*N/(E[k]*Tm).
	const (
		load   = 0.4
		n      = 100
		meanMs = 0.176
	)
	meanTasks := 300.0 / 111
	rate, err := RateForLoad(load, n, meanTasks, meanMs)
	if err != nil {
		t.Fatalf("RateForLoad: %v", err)
	}
	// Round trip.
	back, err := LoadForRate(rate, n, meanTasks, meanMs)
	if err != nil {
		t.Fatalf("LoadForRate: %v", err)
	}
	if math.Abs(back-load) > 1e-12 {
		t.Errorf("LoadForRate(RateForLoad(%v)) = %v", load, back)
	}
	// Empirically: total task-service demand per ms ≈ rho*N.
	arr, _ := NewPoisson(rate)
	fan, _ := NewInverseProportional([]int{1, 10, 100})
	cls, _ := SingleClass(1)
	g, err := NewGenerator(GeneratorConfig{Servers: n, Arrival: arr, Fanout: fan, Classes: cls}, 11)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	var tasks int
	const queries = 200000
	for i := 0; i < queries; i++ {
		q, _ := g.Next()
		tasks += q.Fanout
	}
	demand := float64(tasks) * meanMs / g.Now() // task-ms of work per ms
	if math.Abs(demand-load*n)/(load*n) > 0.02 {
		t.Errorf("offered demand = %v task-ms/ms, want ~%v", demand, load*n)
	}
}

func TestRateLoadConversionErrors(t *testing.T) {
	if _, err := RateForLoad(0, 10, 1, 1); err == nil {
		t.Error("RateForLoad(0) succeeded, want error")
	}
	if _, err := RateForLoad(0.5, 0, 1, 1); err == nil {
		t.Error("RateForLoad with 0 servers succeeded, want error")
	}
	if _, err := RateForLoad(0.5, 10, 0, 1); err == nil {
		t.Error("RateForLoad with 0 mean tasks succeeded, want error")
	}
	if _, err := LoadForRate(0, 10, 1, 1); err == nil {
		t.Error("LoadForRate(0) succeeded, want error")
	}
	if _, err := LoadForRate(1, 0, 1, 1); err == nil {
		t.Error("LoadForRate with 0 servers succeeded, want error")
	}
}

// Property: placement always returns distinct in-range servers of the
// requested cardinality.
func TestPlacementProperty(t *testing.T) {
	arr, _ := NewPoisson(1)
	cls, _ := SingleClass(1)
	prop := func(rawN uint8, rawK uint8, seed int64) bool {
		n := int(rawN%200) + 1
		k := int(rawK)%n + 1
		fan, err := NewFixed(k)
		if err != nil {
			return false
		}
		g, err := NewGenerator(GeneratorConfig{Servers: n, Arrival: arr, Fanout: fan, Classes: cls}, seed)
		if err != nil {
			return false
		}
		q, _ := g.Next()
		if len(q.Servers) != k {
			return false
		}
		seen := map[int]bool{}
		for _, s := range q.Servers {
			if s < 0 || s >= n || seen[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Errorf("placement property violated: %v", err)
	}
}

// TestNextMatchesNextInto: the by-value Next and the fill form NextInto
// give one stream for one seed, placements included, also when NextInto's
// caller recycles every placement (so the generator reuses slices).
func TestNextMatchesNextInto(t *testing.T) {
	byValue, filled := testGenerator(t, 5), testGenerator(t, 5)
	var q Query
	for i := 0; i < 20000; i++ {
		want, _ := byValue.Next()
		if !filled.NextInto(&q) {
			t.Fatal("NextInto reported an exhausted stream")
		}
		if q.ID != want.ID || q.Arrival != want.Arrival || q.Class != want.Class || q.Fanout != want.Fanout ||
			!reflect.DeepEqual(q.Servers, want.Servers) || q.Services != nil || q.HasBudget || q.Request != 0 {
			t.Fatalf("query %d: NextInto gave %+v, Next gave %+v", i, q, want)
		}
		filled.Recycle(q.Servers)
	}
}

// TestNextIntoRecycleAllocationFree: once every fanout has a recycled
// placement slice, generating a query and recycling its placement
// allocates nothing.
func TestNextIntoRecycleAllocationFree(t *testing.T) {
	g := testGenerator(t, 6)
	var q Query
	step := func() {
		g.NextInto(&q)
		g.Recycle(q.Servers)
	}
	for i := 0; i < 10000; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(10000, step); allocs != 0 {
		t.Errorf("NextInto + Recycle allocated %v times per query, want 0", allocs)
	}
}

// TestRecycledPlacementServesItsFanout: a slice recycled at fanout k goes
// to the next fanout-k query and to no query of another fanout, and
// slices the generator cannot have minted are not reused at all.
func TestRecycledPlacementServesItsFanout(t *testing.T) {
	g := testGenerator(t, 7)
	var q Query
	for g.NextInto(&q); q.Fanout != 10; g.NextInto(&q) {
	}
	kept := q.Servers
	if cap(kept) != 10 {
		t.Fatalf("fanout-10 placement has capacity %d, want 10", cap(kept))
	}
	g.Recycle(kept)
	// Never minted here: wrong capacity for its length, or empty.
	foreign, empty := make([]int, 1, 100), make([]int, 0, 1)
	g.Recycle(foreign)
	g.Recycle(empty)
	for others := 0; ; others++ {
		g.NextInto(&q)
		got := &q.Servers[0]
		if q.Fanout == 10 {
			if got != &kept[0] {
				t.Fatal("the next fanout-10 query did not get the slice recycled at fanout 10")
			}
			if others == 0 {
				t.Error("no query of another fanout came between; the check proved nothing")
			}
			return
		}
		if got == &kept[0] || got == &foreign[0] || got == &empty[:1][0] {
			t.Fatalf("fanout-%d query got a slice recycled at fanout 10 or never minted here", q.Fanout)
		}
	}
}
