package core

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"tailguard/internal/dist"
	"tailguard/internal/workload"
)

// sameBits reports bit-level float equality (so +Inf == +Inf and a
// budget cannot drift by an ulp between the table and the rule).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// The table serves exactly the tail term the miss handler computes, and
// Budget and Key are built from it: every class × fanout, under all three
// deadline rules, on the miss and on the hit, whatever order the entries
// were filled in.
func TestBudgetTableMatchesMissHandler(t *testing.T) {
	const maxFanout = 128
	w := dist.MustTailbenchWorkload("masstree")
	est, err := NewHomogeneousStaticTailEstimator(w.ServiceTime, maxFanout)
	if err != nil {
		t.Fatalf("NewHomogeneousStaticTailEstimator: %v", err)
	}
	// Class 0's SLO sits below the unloaded tail of wide fanouts, so the
	// TFEDFQ row holds negative budgets too.
	classes, err := workload.TwoClasses(0.3, 5)
	if err != nil {
		t.Fatalf("TwoClasses: %v", err)
	}
	slo := []float64{0.3, 1.5}
	for _, spec := range []Spec{FIFO, TEDFQ, TFEDFQ} {
		d, err := NewDeadliner(spec, est, classes)
		if err != nil {
			t.Fatalf("NewDeadliner(%s): %v", spec.Name, err)
		}
		fanouts := rand.New(rand.NewSource(1)).Perm(maxFanout)
		negative := false
		for pass := 0; pass < 2; pass++ { // pass 0 misses, pass 1 hits
			for _, f := range fanouts {
				for class := 1; class >= 0; class-- {
					x, err := d.compute(class, f+1)
					if err != nil {
						t.Fatalf("%s compute(%d, %d): %v", spec.Name, class, f+1, err)
					}
					got, err := d.Budget(class, f+1)
					if err != nil {
						t.Fatalf("%s Budget(%d, %d): %v", spec.Name, class, f+1, err)
					}
					if !sameBits(got, slo[class]-x) {
						t.Fatalf("%s pass %d Budget(%d, %d) = %v, miss handler says %v − %v", spec.Name, pass, class, f+1, got, slo[class], x)
					}
					if e, ok := d.lookup(class, f+1); !ok || !sameBits(e, x) {
						t.Fatalf("%s table entry (%d, %d) = %v, %v; want the tail term %v", spec.Name, class, f+1, e, ok, x)
					}
					td, err := d.Deadline(100, class, f+1)
					if err != nil || !sameBits(td, 100+got) {
						t.Fatalf("%s Deadline(100, %d, %d) = %v, %v; want %v", spec.Name, class, f+1, td, err, 100+got)
					}
					key, err := d.Key(100, class, f+1)
					if want := 100 + ((slo[class] - slo[0]) - x); err != nil || !sameBits(key, want) {
						t.Fatalf("%s Key(100, %d, %d) = %v, %v; want %v", spec.Name, class, f+1, key, err, want)
					}
					negative = negative || got < 0
				}
			}
		}
		if spec.Deadline == DeadlineSLOFanout && !negative {
			t.Errorf("%s: no negative budget in the table; the test lost its negative row", spec.Name)
		}

		// Errors are the rule's own, and answering them leaves the table alone.
		before := d.table.Load()
		for _, class := range []int{-1, 2, math.MaxInt, math.MinInt} {
			if _, err := d.Budget(class, 1); err == nil {
				t.Errorf("%s Budget(class %d) succeeded, want error", spec.Name, class)
			}
		}
		for _, f := range []int{0, -3, math.MinInt} {
			_, err := d.Budget(0, f)
			if wantErr := spec.Deadline == DeadlineSLOFanout; (err != nil) != wantErr {
				t.Errorf("%s Budget(fanout %d) error = %v, want error: %v", spec.Name, f, err, wantErr)
			}
		}
		if d.table.Load() != before {
			t.Errorf("%s: an erroring or repeated lookup republished the table", spec.Name)
		}

		// Past the table's width a budget is still right, just not kept.
		wide, err := d.Budget(1, maxTableFanout+1)
		x, _ := d.compute(1, maxTableFanout+1)
		if err != nil || !sameBits(wide, slo[1]-x) {
			t.Errorf("%s Budget(fanout %d) = %v, %v; want %v", spec.Name, maxTableFanout+1, wide, err, slo[1]-x)
		}
		if got := d.table.Load().cols; got > maxFanout {
			t.Errorf("%s: table grew to %d columns, want <= %d", spec.Name, got, maxFanout)
		}
	}
}

// Tabling the tail term instead of the budget moved no budget: these are
// the values the table gave when it held budgets, to the bit.
func TestBudgetsPinned(t *testing.T) {
	est, _ := NewHomogeneousStaticTailEstimator(dist.MustTailbenchWorkload("masstree").ServiceTime, 128)
	classes, _ := workload.TwoClasses(0.3, 5)
	for _, tc := range []struct {
		spec          Spec
		class, fanout int
		want          float64
	}{
		{FIFO, 0, 1, math.Inf(1)},
		{FIFO, 1, 128, math.Inf(1)},
		{TEDFQ, 0, 10, 0.3},
		{TEDFQ, 1, 100, 1.5},
		{TFEDFQ, 0, 1, 0.08099999999999999},
		{TFEDFQ, 0, 100, -0.173},
		{TFEDFQ, 0, 128, -0.22265430055742802},
		{TFEDFQ, 1, 10, 1.2530000000000001},
		{TFEDFQ, 1, 128, 0.977345699442572},
	} {
		d, _ := NewDeadliner(tc.spec, est, classes)
		if got, err := d.Budget(tc.class, tc.fanout); err != nil || !sameBits(got, tc.want) {
			t.Errorf("%s Budget(%d, %d) = %v, %v; want %v", tc.spec.Name, tc.class, tc.fanout, got, err, tc.want)
		}
	}
}

// With one class a key carries no SLO: two Deadliners whose only class
// differs in its SLO stamp the same bits for every arrival and fanout, so
// their EDF orders are one order. The key plus MinSLO is the deadline up
// to rounding.
func TestSingleClassKeysIgnoreTheSLO(t *testing.T) {
	est, _ := NewHomogeneousStaticTailEstimator(dist.MustTailbenchWorkload("masstree").ServiceTime, 100)
	for _, spec := range []Spec{TEDFQ, TFEDFQ} {
		var d [2]*Deadliner
		for i, slo := range []float64{5.85, 5.86} {
			classes, _ := workload.SingleClass(slo)
			d[i], _ = NewDeadliner(spec, est, classes)
		}
		for _, t0 := range []float64{0, 1, 1.0000000000000002, 3.7, 12345.678} {
			for _, f := range []int{1, 2, 10, 100} {
				k0, err0 := d[0].Key(t0, 0, f)
				k1, err1 := d[1].Key(t0, 0, f)
				if err0 != nil || err1 != nil || !sameBits(k0, k1) {
					t.Fatalf("%s Key(%v, 0, %d) = %v (SLO 5.85), %v (SLO 5.86); want the same bits", spec.Name, t0, f, k0, k1)
				}
				if td, _ := d[0].Deadline(t0, 0, f); math.Abs(k0+d[0].MinSLO()-td) > 1e-9 {
					t.Errorf("%s Key(%v, 0, %d) + MinSLO %v = %v, deadline %v", spec.Name, t0, f, d[0].MinSLO(), k0+d[0].MinSLO(), td)
				}
			}
		}
	}
}

// tgd's shape: the estimator models one server while fanouts run to the
// daemon's MaxFanout, so the table starts one column wide and doubles.
func TestBudgetTableGrowsPastTheCluster(t *testing.T) {
	w := dist.MustTailbenchWorkload("masstree")
	est, _ := NewHomogeneousStaticTailEstimator(w.ServiceTime, 1)
	classes, _ := workload.SingleClass(20)
	d, _ := NewDeadliner(TFEDFQ, est, classes)
	tables := map[*tailTable]bool{}
	for f := 1; f <= 1024; f++ {
		got, err := d.Budget(0, f)
		x, _ := d.compute(0, f)
		if err != nil || !sameBits(got, 20-x) {
			t.Fatalf("Budget(0, %d) = %v, %v; want %v", f, got, err, 20-x)
		}
		tables[d.table.Load()] = true
	}
	for f := 1; f <= 1024; f++ { // every earlier entry survived every widening
		if _, ok := d.lookup(0, f); !ok {
			t.Fatalf("fanout %d lost from the table after it grew", f)
		}
	}
	if got := d.table.Load().cols; got != 1024 || len(tables) != 11 {
		t.Errorf("1024 ascending fanouts: %d columns over %d tables, want 1024 over 11 (doubling)", got, len(tables))
	}
}

// countingDist counts Quantile calls: the estimator work a Deadliner does.
type countingDist struct {
	dist.Distribution
	quantiles atomic.Int64
}

func (c *countingDist) Quantile(p float64) float64 {
	c.quantiles.Add(1)
	return c.Distribution.Quantile(p)
}

// A sweep builds a fresh Deadliner per probe, so building one must cost
// nothing: no table and no quantile until the first Budget call, then one
// quantile per distinct (class, fanout) and none on repeats.
func TestFreshDeadlinerDoesNoWorkUntilFirstBudget(t *testing.T) {
	cd := &countingDist{Distribution: dist.MustTailbenchWorkload("masstree").ServiceTime}
	classes, _ := workload.TwoClasses(1.0, 1.5)
	for probe := 0; probe < 3; probe++ {
		cd.quantiles.Store(0)
		est, err := NewHomogeneousStaticTailEstimator(cd, 100)
		if err != nil {
			t.Fatalf("NewHomogeneousStaticTailEstimator: %v", err)
		}
		d, err := NewDeadliner(TFEDFQ, est, classes)
		if err != nil {
			t.Fatalf("NewDeadliner: %v", err)
		}
		if d.table.Load() != nil || cd.quantiles.Load() != 0 {
			t.Fatalf("fresh Deadliner: table %v, %d quantile calls; want none", d.table.Load(), cd.quantiles.Load())
		}
		var first *tailTable
		for i := 0; i < 1000; i++ {
			if _, err := d.Budget(i%2, []int{1, 10, 100}[i%3]); err != nil {
				t.Fatalf("Budget: %v", err)
			}
			if i == 0 {
				first = d.table.Load()
			}
		}
		if got := cd.quantiles.Load(); got != 6 {
			t.Errorf("1000 lookups over 6 (class, fanout) pairs made %d quantile calls, want 6", got)
		}
		// Sized to the cluster by the first miss, so the later misses fill
		// it in place: one table per run is all a simulation allocates.
		if d.table.Load() != first || first.cols != 100 {
			t.Errorf("table replaced after the first miss, or %d columns wide; want one table of 100", first.cols)
		}
	}
}

// A table built before an online CDF's version advances is not served
// after it.
func TestBudgetTableInvalidatedByEstimatorEpoch(t *testing.T) {
	exp, _ := dist.NewExponential(1)
	est, err := NewTailEstimator(4, exp, 2000, 0)
	if err != nil {
		t.Fatalf("NewTailEstimator: %v", err)
	}
	classes, _ := workload.SingleClass(100)
	d, _ := NewDeadliner(TFEDFQ, est, classes)
	before, err := d.Budget(0, 1)
	if err != nil {
		t.Fatalf("Budget: %v", err)
	}
	epoch := est.Epoch()
	// Slow observations on server 0 (the representative server): between
	// version advances the table keeps serving the value it holds ...
	n := 0
	for est.Epoch() == epoch {
		if got, _ := d.Budget(0, 1); !sameBits(got, before) {
			t.Fatalf("budget moved %v -> %v after %d observations with the epoch still %d", before, got, n, epoch)
		}
		if err := est.Observe(0, 50); err != nil {
			t.Fatalf("Observe: %v", err)
		}
		n++
	}
	// ... and once one advances, the old table is dead: the next lookup
	// is a miss that recomputes from the CDF as it now stands.
	if _, ok := d.lookup(0, 1); ok {
		t.Fatalf("table built at epoch %d still served at epoch %d", epoch, est.Epoch())
	}
	after, err := d.Budget(0, 1)
	if err != nil {
		t.Fatalf("Budget after observe: %v", err)
	}
	x, _ := d.compute(0, 1)
	if !sameBits(after, 100-x) || after >= before {
		t.Errorf("budget after %d slow observations = %v (was %v), miss handler says %v", n, after, before, 100-x)
	}
	// Any server's version advancing moves the epoch, not only server 0's.
	epoch = est.Epoch()
	for i := 0; i < 1024; i++ {
		if err := est.Observe(3, 1); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	if est.Epoch() == epoch {
		t.Errorf("1024 observations on server 3 left the epoch at %d", epoch)
	}
	// Static and nil estimators have one epoch for ever.
	static, _ := NewHomogeneousStaticTailEstimator(exp, 4)
	if static.Epoch() != 0 || (*TailEstimator)(nil).Epoch() != 0 {
		t.Errorf("static epoch %d, nil epoch %d; want 0, 0", static.Epoch(), (*TailEstimator)(nil).Epoch())
	}
}

// The tgd / saas shape: request goroutines look budgets up on one shared
// Deadliner while completions feed the estimator. Run with -race.
func TestDeadlinerConcurrentBudgetAndObserve(t *testing.T) {
	exp, _ := dist.NewExponential(1)
	// A CDF's version advances on every 1024th sample, seeds included.
	// Seeding with 2048 makes each writer's last observation an advance,
	// so nothing computed before the writers finish outlives them (a table
	// is otherwise allowed to lag the CDF by up to 1023 samples).
	est, err := NewTailEstimator(4, exp, 2048, 500)
	if err != nil {
		t.Fatalf("NewTailEstimator: %v", err)
	}
	classes, _ := workload.TwoClasses(50, 2)
	d, _ := NewDeadliner(TFEDFQ, est, classes)
	const observations = 20 * 1024 // twenty advances per writer
	var writers, readers sync.WaitGroup
	var done atomic.Bool
	for s := 0; s < 2; s++ {
		writers.Add(1)
		go func(server int) {
			defer writers.Done()
			for i := 0; i < observations; i++ {
				if err := est.Observe(server, float64(i%7)); err != nil {
					t.Errorf("Observe: %v", err)
					return
				}
			}
		}(s)
	}
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; !done.Load(); i++ {
				class, fanout := (i+g)%2, 1+(i*7+g)%64
				b, err := d.Budget(class, fanout)
				if err != nil {
					t.Errorf("Budget(%d, %d): %v", class, fanout, err)
					return
				}
				// x_p^u lies within the CDF's range, so a budget read from
				// a torn or foreign table would show here.
				if slo := 50 * float64(1+class); math.IsNaN(b) || b > slo || b < slo-1e6 {
					t.Errorf("Budget(%d, %d) = %v outside (SLO - max latency, SLO]", class, fanout, b)
					return
				}
			}
		}(g)
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
	if got := est.Epoch(); got != 2*observations/1024 {
		t.Errorf("epoch = %d after %d observations, want %d", got, 2*observations, 2*observations/1024)
	}
	// Quiescent again: the table and the rule agree.
	for class := 0; class < 2; class++ {
		for fanout := 1; fanout <= 64; fanout++ {
			got, _ := d.Budget(class, fanout)
			if x, _ := d.compute(class, fanout); !sameBits(got, 50*float64(1+class)-x) {
				t.Errorf("after the storm Budget(%d, %d) = %v, miss handler says %v", class, fanout, got, 50*float64(1+class)-x)
			}
		}
	}
}
