package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"tailguard/internal/dist"
	"tailguard/internal/workload"
)

func generateTestTrace(t *testing.T, n int) []Record {
	t.Helper()
	arr, _ := workload.NewPoisson(0.5)
	fan, _ := workload.NewInverseProportional([]int{1, 10, 100})
	cls, _ := workload.TwoClasses(1, 1.5)
	gen, err := workload.NewGenerator(workload.GeneratorConfig{
		Servers: 100, Arrival: arr, Fanout: fan, Classes: cls,
	}, 1)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	w := dist.MustTailbenchWorkload("masstree")
	recs, err := Generate(gen, []dist.Distribution{w.ServiceTime}, 100, n, 2)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return recs
}

func TestGenerate(t *testing.T) {
	recs := generateTestTrace(t, 1000)
	if len(recs) != 1000 {
		t.Fatalf("generated %d records, want 1000", len(recs))
	}
	prev := 0.0
	for i, rec := range recs {
		if rec.ID != int64(i) {
			t.Fatalf("record %d has ID %d", i, rec.ID)
		}
		if rec.Arrival < prev {
			t.Fatalf("arrivals not monotone at %d", i)
		}
		prev = rec.Arrival
		if len(rec.Services) != len(rec.Servers) {
			t.Fatalf("record %d: %d services for %d servers", i, len(rec.Services), len(rec.Servers))
		}
		for _, s := range rec.Services {
			if s <= 0 {
				t.Fatalf("record %d has non-positive service %v", i, s)
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	arr, _ := workload.NewPoisson(1)
	fan, _ := workload.NewFixed(1)
	cls, _ := workload.SingleClass(1)
	gen, _ := workload.NewGenerator(workload.GeneratorConfig{Servers: 10, Arrival: arr, Fanout: fan, Classes: cls}, 1)
	svc := []dist.Distribution{dist.Deterministic{V: 1}}
	if _, err := Generate(nil, svc, 10, 5, 1); err == nil {
		t.Error("nil generator succeeded, want error")
	}
	if _, err := Generate(gen, svc, 10, 0, 1); err == nil {
		t.Error("n=0 succeeded, want error")
	}
	if _, err := Generate(gen, []dist.Distribution{svc[0], svc[0]}, 10, 5, 1); err == nil {
		t.Error("bad services count succeeded, want error")
	}
}

func TestSaveLoadJSONRoundTrip(t *testing.T) {
	recs := generateTestTrace(t, 200)
	var buf bytes.Buffer
	if err := Save(&buf, recs); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("loaded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		a, b := recs[i], got[i]
		if a.ID != b.ID || a.Arrival != b.Arrival || a.Class != b.Class {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, a, b)
		}
		for j := range a.Services {
			if a.Services[j] != b.Services[j] {
				t.Fatalf("record %d service %d mismatch", i, j)
			}
		}
	}
}

func TestSaveLoadGobRoundTrip(t *testing.T) {
	recs := generateTestTrace(t, 200)
	var buf bytes.Buffer
	if err := SaveGob(&buf, recs); err != nil {
		t.Fatalf("SaveGob: %v", err)
	}
	got, err := LoadGob(&buf)
	if err != nil {
		t.Fatalf("LoadGob: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("loaded %d records, want %d", len(got), len(recs))
	}
	if got[100].Arrival != recs[100].Arrival {
		t.Error("gob round trip corrupted arrivals")
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"empty", ""},
		{"garbage", "not json\n"},
		{"no servers", `{"id":0,"arrival_ms":1,"class":0,"servers":[],"services_ms":[]}` + "\n"},
		{"service mismatch", `{"id":0,"arrival_ms":1,"class":0,"servers":[1,2],"services_ms":[0.5]}` + "\n"},
		{"negative service", `{"id":0,"arrival_ms":1,"class":0,"servers":[1],"services_ms":[-0.5]}` + "\n"},
		{"negative class", `{"id":0,"arrival_ms":1,"class":-1,"servers":[1],"services_ms":[0.5]}` + "\n"},
		{"arrival regression", `{"id":0,"arrival_ms":5,"class":0,"servers":[1],"services_ms":[0.5]}` + "\n" +
			`{"id":1,"arrival_ms":4,"class":0,"servers":[1],"services_ms":[0.5]}` + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(tc.body)); err == nil {
				t.Error("Load succeeded, want error")
			}
		})
	}
}

func TestReplayer(t *testing.T) {
	recs := generateTestTrace(t, 50)
	rep, err := NewReplayer(recs)
	if err != nil {
		t.Fatalf("NewReplayer: %v", err)
	}
	if got := rep.Remaining(); got != 50 {
		t.Errorf("Remaining() = %d, want 50", got)
	}
	var count int
	var q workload.Query
	for rep.NextInto(&q) {
		if q.ID != recs[count].ID || q.Fanout != len(recs[count].Servers) {
			t.Fatalf("replayed query %d mismatch", count)
		}
		if q.Services == nil {
			t.Fatalf("replayed query %d lost pinned services", count)
		}
		count++
	}
	if count != 50 {
		t.Errorf("replayed %d queries, want 50", count)
	}
	if rep.NextInto(&q) {
		t.Error("NextInto after exhaustion returned true")
	}
	rep.Rewind()
	if got := rep.Remaining(); got != 50 {
		t.Errorf("Remaining after Rewind = %d, want 50", got)
	}
	if _, err := NewReplayer(nil); err == nil {
		t.Error("NewReplayer(nil) succeeded, want error")
	}
}

func TestSummarize(t *testing.T) {
	recs := generateTestTrace(t, 5000)
	stats, err := Summarize(recs)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if stats.Queries != 5000 {
		t.Errorf("Queries = %d, want 5000", stats.Queries)
	}
	// Mean fanout should approach E[kf] = 300/111 ≈ 2.7.
	if math.Abs(stats.MeanFanout-300.0/111) > 0.3 {
		t.Errorf("MeanFanout = %v, want ~2.7", stats.MeanFanout)
	}
	// Mean service should approach the masstree mean of 0.176 ms.
	if math.Abs(stats.MeanService-0.176)/0.176 > 0.05 {
		t.Errorf("MeanService = %v, want ~0.176", stats.MeanService)
	}
	if stats.P99Service <= stats.MeanService {
		t.Errorf("P99Service %v not above mean %v", stats.P99Service, stats.MeanService)
	}
	if len(stats.ClassCounts) != 2 {
		t.Errorf("ClassCounts = %v, want 2 classes", stats.ClassCounts)
	}
	if stats.FanoutCounts[1] < stats.FanoutCounts[100] {
		t.Errorf("fanout-1 count %d below fanout-100 count %d", stats.FanoutCounts[1], stats.FanoutCounts[100])
	}
	if _, err := Summarize(nil); err == nil {
		t.Error("Summarize(nil) succeeded, want error")
	}
}

// TestReplayDeterminismAcrossPolicies replays one trace under two policies
// and confirms the workload (arrivals, services) is identical — the whole
// point of traces.
func TestReplayDeterminismAcrossPolicies(t *testing.T) {
	recs := generateTestTrace(t, 100)
	r1, _ := NewReplayer(recs)
	r2, _ := NewReplayer(recs)
	var a, b workload.Query
	for {
		ok1, ok2 := r1.NextInto(&a), r2.NextInto(&b)
		if ok1 != ok2 {
			t.Fatal("replayers diverged in length")
		}
		if !ok1 {
			break
		}
		if a.Arrival != b.Arrival || a.Services[0] != b.Services[0] {
			t.Fatal("replayers diverged in content")
		}
	}
}
