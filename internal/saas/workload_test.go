package saas

import (
	"math"
	"testing"
	"time"
)

func testQueryGen(t *testing.T) *QueryGen {
	t.Helper()
	classes, err := SaSClasses(1)
	if err != nil {
		t.Fatalf("SaSClasses: %v", err)
	}
	start, end := DefaultStoreSpan()
	g, err := NewQueryGen(classes, start.Unix(), end.Unix(), 1)
	if err != nil {
		t.Fatalf("NewQueryGen: %v", err)
	}
	return g
}

func TestSaSClasses(t *testing.T) {
	classes, err := SaSClasses(1)
	if err != nil {
		t.Fatalf("SaSClasses: %v", err)
	}
	if classes.Len() != 3 {
		t.Fatalf("Len = %d, want 3", classes.Len())
	}
	for i, want := range PaperClassSLOsMs {
		c, err := classes.Class(i)
		if err != nil {
			t.Fatalf("Class(%d): %v", i, err)
		}
		if c.SLOMs != want {
			t.Errorf("class %d SLO = %v, want %v", i, c.SLOMs, want)
		}
	}
	// Compression divides SLOs.
	fast, err := SaSClasses(20)
	if err != nil {
		t.Fatalf("SaSClasses(20): %v", err)
	}
	c0, _ := fast.Class(0)
	if c0.SLOMs != 40 {
		t.Errorf("compressed class A SLO = %v, want 40", c0.SLOMs)
	}
	if _, err := SaSClasses(0.5); err == nil {
		t.Error("compression < 1 succeeded, want error")
	}
}

func TestQueryGenClassMixAndPlacement(t *testing.T) {
	g := testQueryGen(t)
	counts := [3]int{}
	srClassA := 0
	const n = 20000
	for i := 0; i < n; i++ {
		q, err := g.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if q.ID != int64(i) {
			t.Fatalf("query %d has ID %d", i, q.ID)
		}
		counts[q.Class]++
		switch q.Class {
		case ClassA:
			if len(q.Nodes) != 1 {
				t.Fatalf("class A fanout = %d", len(q.Nodes))
			}
			if q.Nodes[0] < NodesPerCluster {
				srClassA++
			}
		case ClassB:
			if len(q.Nodes) != 4 {
				t.Fatalf("class B fanout = %d", len(q.Nodes))
			}
			for c, node := range q.Nodes {
				if node/NodesPerCluster != c {
					t.Fatalf("class B node %d not in cluster %d", node, c)
				}
			}
		case ClassC:
			if len(q.Nodes) != TotalNodes {
				t.Fatalf("class C fanout = %d", len(q.Nodes))
			}
		}
		// Retrieval windows: 1-30 whole days inside the span.
		for i := range q.Nodes {
			days := (q.ToTs[i] - q.FromTs[i]) / (24 * 3600)
			if days < 1 || days > 30 {
				t.Fatalf("retrieval window = %d days", days)
			}
		}
	}
	if frac := float64(counts[ClassA]) / n; math.Abs(frac-0.5) > 0.02 {
		t.Errorf("class A fraction = %v, want ~0.5", frac)
	}
	if frac := float64(counts[ClassB]) / n; math.Abs(frac-0.4) > 0.02 {
		t.Errorf("class B fraction = %v, want ~0.4", frac)
	}
	if frac := float64(srClassA) / float64(counts[ClassA]); math.Abs(frac-0.8) > 0.03 {
		t.Errorf("class A server-room bias = %v, want ~0.8", frac)
	}
}

func TestExpectedServerRoomTasks(t *testing.T) {
	if got := expectedServerRoomTasksPerQuery(); math.Abs(got-1.6) > 1e-12 {
		t.Errorf("expectedServerRoomTasksPerQuery = %v, want 1.6", got)
	}
}

func TestRateForServerRoomLoad(t *testing.T) {
	// load * 8 / (1.6 * mean).
	rate, err := RateForServerRoomLoad(0.4, 82)
	if err != nil {
		t.Fatalf("RateForServerRoomLoad: %v", err)
	}
	want := 0.4 * 8 / (1.6 * 82)
	if math.Abs(rate-want) > 1e-12 {
		t.Errorf("rate = %v, want %v", rate, want)
	}
	if _, err := RateForServerRoomLoad(0, 82); err == nil {
		t.Error("zero load succeeded, want error")
	}
	if _, err := RateForServerRoomLoad(0.4, 0); err == nil {
		t.Error("zero mean succeeded, want error")
	}
}

func TestArrivalSchedule(t *testing.T) {
	arr, err := ArrivalSchedule(1000, 0.5, 3)
	if err != nil {
		t.Fatalf("ArrivalSchedule: %v", err)
	}
	if len(arr) != 1000 {
		t.Fatalf("len = %d", len(arr))
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] < arr[i-1] {
			t.Fatalf("arrivals not monotone at %d", i)
		}
	}
	// Mean gap ~2 ms.
	mean := float64(arr[len(arr)-1]) / float64(len(arr)) / float64(time.Millisecond)
	if math.Abs(mean-2) > 0.3 {
		t.Errorf("mean gap = %v ms, want ~2", mean)
	}
	if _, err := ArrivalSchedule(0, 1, 1); err == nil {
		t.Error("0 arrivals succeeded, want error")
	}
}

func TestQueryGenValidation(t *testing.T) {
	classes, _ := SaSClasses(1)
	if _, err := NewQueryGen(nil, 0, 1e9, 1); err == nil {
		t.Error("nil classes succeeded, want error")
	}
	if _, err := NewQueryGen(classes, 0, 1000, 1); err == nil {
		t.Error("short span succeeded, want error")
	}
}
