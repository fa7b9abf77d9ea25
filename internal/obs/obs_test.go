package obs

import (
	"math"
	"testing"
)

func TestNilTracerIsDisabledAndSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	// All recording entry points must be no-ops, not panics.
	tr.Emit(Event{Kind: KindArrival})
	tr.Query(KindArrival, 1, 1, 0, 2)
	tr.TaskEvent(KindEnqueue, 1, 1, 0, 0, 0, 0)
	tr.QueueDepth(1, 0, 3)
}

func TestNewTracerNilSinkDisables(t *testing.T) {
	if tr := NewTracer(TracerConfig{}); tr != nil {
		t.Fatalf("NewTracer with nil sink = %v, want nil", tr)
	}
}

func TestTracerSampling(t *testing.T) {
	ring, err := NewRing(128)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	tr := NewTracer(TracerConfig{Sink: ring, SampleEvery: 4})
	for id := int64(0); id < 16; id++ {
		tr.Query(KindArrival, float64(id), id, 0, 1)
	}
	// Query-less events always pass.
	tr.QueueDepth(99, 2, 5)
	events := ring.Snapshot(nil)
	if want := 4 + 1; len(events) != want {
		t.Fatalf("recorded %d events, want %d (ids 0,4,8,12 + depth)", len(events), want)
	}
	for _, e := range events[:4] {
		if e.QueryID%4 != 0 {
			t.Errorf("unsampled query %d recorded", e.QueryID)
		}
	}
}

func TestKindNames(t *testing.T) {
	for k := 0; k < numKinds; k++ {
		if Kind(k).String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Error("out-of-range kind must stringify as unknown")
	}
}

func TestSlackHistQuantileAndCounts(t *testing.T) {
	var h SlackHist
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty hist quantile = %v, want 0", got)
	}
	// 10 violations at -50ms, 90 passes at +100ms.
	for i := 0; i < 10; i++ {
		h.Observe(-50)
	}
	for i := 0; i < 90; i++ {
		h.Observe(100)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if h.NegativeCount() != 10 {
		t.Fatalf("negative count = %d, want 10", h.NegativeCount())
	}
	if q := h.Quantile(0.05); q > -slackMinMs {
		t.Errorf("p5 slack = %v, want clearly negative", q)
	}
	if q := h.Quantile(0.5); q < 50 || q > 200 {
		t.Errorf("median slack = %v, want near +100", q)
	}
	// Extremes clamp into edge buckets instead of overflowing.
	h.Observe(1e12)
	h.Observe(-1e12)
	h.Observe(math.NaN()) // dropped
	if h.Count() != 102 {
		t.Fatalf("count after clamped extremes = %d, want 102", h.Count())
	}
}

func TestSlackBucketEdgesConsistent(t *testing.T) {
	for i := 0; i < slackBuckets; i++ {
		lo, hi := slackEdges(i)
		if !(lo < hi) {
			t.Fatalf("bucket %d edges inverted: [%v, %v)", i, lo, hi)
		}
		// A value strictly inside the bucket must map back to it.
		mid := (lo + hi) / 2
		if got := slackBucket(mid); got != i {
			t.Errorf("bucket %d [%v, %v): midpoint %v maps to bucket %d", i, lo, hi, mid, got)
		}
	}
}

func TestAttributorNilSafe(t *testing.T) {
	var a *Attributor
	a.Observe(QueryOutcome{Class: 0, LatencyMs: 10, SLOMs: 5})
	a.Reset()
	r := a.Report()
	if r.Total != 0 || r.Misses != 0 || r.MissRatio() != 0 {
		t.Fatalf("nil attributor report = %+v, want empty", r)
	}
}

func TestAttributorBreakdown(t *testing.T) {
	a := NewAttributor()
	// Class 0: 2 passes, 2 misses (one queue-dominated on server 3, one
	// service-dominated on server 1).
	a.Observe(QueryOutcome{Class: 0, LatencyMs: 8, SLOMs: 10, StragglerServer: 2})
	a.Observe(QueryOutcome{Class: 0, LatencyMs: 9, SLOMs: 10, StragglerServer: 2})
	a.Observe(QueryOutcome{Class: 0, LatencyMs: 20, SLOMs: 10,
		StragglerServer: 3, StragglerWaitMs: 15, StragglerServiceMs: 5})
	a.Observe(QueryOutcome{Class: 0, LatencyMs: 30, SLOMs: 10,
		StragglerServer: 1, StragglerWaitMs: 2, StragglerServiceMs: 28})
	// Class 2 (sparse IDs): one pass.
	a.Observe(QueryOutcome{Class: 2, LatencyMs: 1, SLOMs: 10, StragglerServer: 0})

	r := a.Report()
	if r.Total != 5 || r.Misses != 2 {
		t.Fatalf("total/misses = %d/%d, want 5/2", r.Total, r.Misses)
	}
	if got := r.MissRatio(); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("miss ratio = %v, want 0.4", got)
	}
	if len(r.ByClass) != 2 {
		t.Fatalf("per-class entries = %d, want 2 (classes 0 and 2)", len(r.ByClass))
	}
	c0 := r.ByClass[0]
	if c0.Class != 0 || c0.Queries != 4 || c0.Misses != 2 {
		t.Fatalf("class 0 = %+v", c0)
	}
	if c0.QueueDominated != 1 || c0.ServiceDominated != 1 {
		t.Fatalf("class 0 causes = %d queue / %d service, want 1/1", c0.QueueDominated, c0.ServiceDominated)
	}
	if math.Abs(c0.MeanMissQueueMs-8.5) > 1e-12 || math.Abs(c0.MeanMissServeMs-16.5) > 1e-12 {
		t.Fatalf("class 0 mean miss decomposition = %v/%v, want 8.5/16.5", c0.MeanMissQueueMs, c0.MeanMissServeMs)
	}
	if r.ByClass[1].Class != 2 || r.ByClass[1].Queries != 1 {
		t.Fatalf("class 2 entry = %+v", r.ByClass[1])
	}
	// Straggler ranking: servers 1 and 3 tie at one miss; server index
	// breaks the tie.
	if len(r.Stragglers) != 2 || r.Stragglers[0].Server != 1 || r.Stragglers[1].Server != 3 {
		t.Fatalf("stragglers = %+v, want servers [1 3]", r.Stragglers)
	}

	a.Reset()
	if r := a.Report(); r.Total != 0 || len(r.ByClass) != 0 {
		t.Fatalf("report after reset = %+v, want empty", r)
	}
}
