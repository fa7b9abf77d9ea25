package saas

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"tailguard/internal/dist"
)

func testEdge(t *testing.T, id int) *EdgeNode { return testEdgeDelay(t, id, 0) }

// testEdgeDelay is testEdge with every task held for delayMs.
func testEdgeDelay(t *testing.T, id int, delayMs float64) *EdgeNode {
	t.Helper()
	n, err := NewEdgeNode(EdgeConfig{
		ID:    id,
		Store: testStore(t, id),
		Delay: dist.Deterministic{V: delayMs},
		Seed:  int64(id),
	})
	if err != nil {
		t.Fatalf("NewEdgeNode: %v", err)
	}
	t.Cleanup(func() {
		if err := n.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return n
}

func TestEdgeNodeHealthz(t *testing.T) {
	n := testEdge(t, 0)
	resp, err := http.Get(n.URL() + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %s", resp.Status)
	}
	if got := n.Cluster(); got != ServerRoom {
		t.Errorf("Cluster() = %s, want server-room", got)
	}
	if got := n.ID(); got != 0 {
		t.Errorf("ID() = %d, want 0", got)
	}
}

func TestEdgeNodeTaskRoundTrip(t *testing.T) {
	n := testEdge(t, 9) // wet-lab node
	first, _ := testStore(t, 9).Span()
	req := TaskRequest{QueryID: 42, TaskID: 3, FromTs: first, ToTs: first + 2*24*3600}
	body, _ := json.Marshal(req)
	resp, err := http.Post(n.URL()+"/task", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /task: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("task status = %s", resp.Status)
	}
	var tr TaskResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if tr.QueryID != 42 || tr.TaskID != 3 || tr.Node != 9 {
		t.Errorf("response identity = %+v", tr)
	}
	// 2 days at 6h interval = 8 records.
	if len(tr.Records) != 8 {
		t.Errorf("got %d records, want 8", len(tr.Records))
	}
	if tr.ServiceMs != 0 {
		t.Errorf("ServiceMs = %v with zero-delay model", tr.ServiceMs)
	}
}

func TestEdgeNodeBadRequest(t *testing.T) {
	n := testEdge(t, 1)
	resp, err := http.Post(n.URL()+"/task", "application/json", bytes.NewReader([]byte("not json")))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad-body status = %s, want 400", resp.Status)
	}
	// Inverted range.
	body, _ := json.Marshal(TaskRequest{FromTs: 100, ToTs: 50})
	resp2, err := http.Post(n.URL()+"/task", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("inverted-range status = %s, want 400", resp2.Status)
	}
}

func TestEdgeNodeValidation(t *testing.T) {
	if _, err := NewEdgeNode(EdgeConfig{ID: 99, Store: testStore(t, 0), Delay: dist.Deterministic{V: 0}}); err == nil {
		t.Error("out-of-range node ID succeeded, want error")
	}
	if _, err := NewEdgeNode(EdgeConfig{ID: 0, Delay: dist.Deterministic{V: 0}}); err == nil {
		t.Error("nil store succeeded, want error")
	}
	if _, err := NewEdgeNode(EdgeConfig{ID: 0, Store: testStore(t, 0)}); err == nil {
		t.Error("nil delay succeeded, want error")
	}
}
