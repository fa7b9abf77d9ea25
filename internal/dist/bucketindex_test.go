package dist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refTableQuantile is the pre-bucket-index Quantile: sort.Search over the
// P axis plus the identical interpolation. The optimized path must match
// it bit for bit.
func refTableQuantile(q *QuantileTable, p float64) float64 {
	p = clampProb(p)
	i := sort.Search(len(q.bps), func(i int) bool { return q.bps[i].P >= p })
	if i == 0 {
		return q.bps[0].T
	}
	if i >= len(q.bps) {
		return q.bps[len(q.bps)-1].T
	}
	a, b := q.bps[i-1], q.bps[i]
	frac := (p - a.P) / (b.P - a.P)
	return a.T + frac*(b.T-a.T)
}

// refTableCDF is the pre-bucket-index CDF: sort.Search over the T axis
// plus the identical degenerate-segment handling and interpolation.
func refTableCDF(q *QuantileTable, t float64) float64 {
	if t < q.bps[0].T {
		return 0
	}
	last := q.bps[len(q.bps)-1]
	if t >= last.T {
		return 1
	}
	i := sort.Search(len(q.bps), func(i int) bool { return q.bps[i].T > t })
	a, b := q.bps[i-1], q.bps[i]
	if b.T <= a.T {
		return b.P
	}
	frac := (t - a.T) / (b.T - a.T)
	return a.P + frac*(b.P-a.P)
}

// refECDFCDF is the pre-bucket-index ECDF.CDF: sort.SearchFloat64s plus
// the equal-value walk.
func refECDFCDF(e *ECDF, t float64) float64 {
	i := sort.SearchFloat64s(e.sorted, t)
	for i < len(e.sorted) && e.sorted[i] <= t {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

func testTables(t *testing.T) []*QuantileTable {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	table := func(bps []Breakpoint) *QuantileTable {
		q, err := NewQuantileTable(bps)
		if err != nil {
			t.Fatalf("NewQuantileTable: %v", err)
		}
		return q
	}
	tables := []*QuantileTable{
		// Minimal two-point table.
		table([]Breakpoint{{P: 0, T: 1}, {P: 1, T: 5}}),
		// Flat segments (repeated T) exercise the degenerate-segment branch.
		table([]Breakpoint{
			{P: 0, T: 0}, {P: 0.2, T: 2}, {P: 0.5, T: 2}, {P: 0.9, T: 2}, {P: 1, T: 10},
		}),
		// Entirely constant T: the T-axis bucket index is degenerate and
		// must fall back to a plain walk.
		table([]Breakpoint{{P: 0, T: 3}, {P: 0.4, T: 3}, {P: 1, T: 3}}),
	}
	// A large random table with clustered breakpoints.
	bps := []Breakpoint{{P: 0, T: 0}}
	p, v := 0.0, 0.0
	for i := 0; i < 400; i++ {
		p += rng.Float64() * 0.002
		if p >= 1 {
			break
		}
		if rng.Intn(4) > 0 {
			v += rng.ExpFloat64()
		}
		bps = append(bps, Breakpoint{P: p, T: v})
	}
	bps = append(bps, Breakpoint{P: 1, T: v + 1})
	tables = append(tables, table(bps))
	return tables
}

// TestQuantileTableMatchesSortSearch checks that the bucket-index lookup
// is bit-identical to the binary-search reference over dense probe grids,
// including probes exactly at and adjacent to every breakpoint.
func TestQuantileTableMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for ti, q := range testTables(t) {
		var probes []float64
		for i := 0; i <= 4000; i++ {
			probes = append(probes, float64(i)/4000)
		}
		for i := 0; i < 2000; i++ {
			probes = append(probes, rng.Float64())
		}
		for _, bp := range q.bps {
			probes = append(probes,
				bp.P, math.Nextafter(bp.P, 0), math.Nextafter(bp.P, 2),
				bp.T, math.Nextafter(bp.T, -1), math.Nextafter(bp.T, math.MaxFloat64),
				-bp.T, bp.T*1.5)
		}
		for _, x := range probes {
			if got, want := q.Quantile(x), refTableQuantile(q, x); got != want {
				t.Fatalf("table %d: Quantile(%v) = %v, want %v", ti, x, got, want)
			}
			if got, want := q.CDF(x), refTableCDF(q, x); got != want {
				t.Fatalf("table %d: CDF(%v) = %v, want %v", ti, x, got, want)
			}
		}
	}
}

// TestECDFCDFMatchesSortSearch checks ECDF.CDF against the
// sort.SearchFloat64s reference, including heavy ties.
func TestECDFCDFMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sets := [][]float64{
		{0},
		{1, 1, 1, 1},
		{0, 0, 1, 1, 2, 2, 2, 5},
	}
	var big []float64
	for i := 0; i < 3000; i++ {
		// Quantized values generate many exact ties.
		big = append(big, math.Floor(rng.ExpFloat64()*20)/4)
	}
	sets = append(sets, big)
	for si, set := range sets {
		e, err := NewECDF(set)
		if err != nil {
			t.Fatal(err)
		}
		var probes []float64
		for i := -10; i <= 400; i++ {
			probes = append(probes, float64(i)/4)
		}
		for _, v := range e.sorted {
			probes = append(probes, v, math.Nextafter(v, -1), math.Nextafter(v, math.MaxFloat64))
		}
		for i := 0; i < 2000; i++ {
			probes = append(probes, rng.ExpFloat64()*25)
		}
		for _, x := range probes {
			if got, want := e.CDF(x), refECDFCDF(e, x); got != want {
				t.Fatalf("set %d: CDF(%v) = %v, want %v", si, x, got, want)
			}
		}
	}
}

// TestQuantileLookupsAllocationFree pins the sampling hot path at zero
// heap allocations per call.
func TestQuantileLookupsAllocationFree(t *testing.T) {
	q := testTables(t)[3]
	e, err := NewECDF([]float64{1, 2, 2, 3, 5, 8, 13})
	if err != nil {
		t.Fatal(err)
	}
	var sink float64
	probe := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		probe += 0.0001
		sink += q.Quantile(probe)
		sink += q.CDF(probe * 40)
		sink += e.Quantile(probe)
		sink += e.CDF(probe * 13)
	})
	if allocs != 0 {
		t.Fatalf("quantile/CDF lookups allocated %v per run, want 0", allocs)
	}
	_ = sink
}
