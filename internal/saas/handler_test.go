package saas

import (
	"strings"
	"testing"

	"tailguard/internal/core"
	"tailguard/internal/dist"
)

// buildHandler boots a few zero-delay edge nodes and a handler around them.
// Only the first `nodes` node IDs are used (they all land in valid
// clusters since nodes <= TotalNodes).
func buildHandler(t *testing.T, nodes int, spec core.Spec) (*Handler, []*EdgeNode) {
	t.Helper()
	edges := make([]*EdgeNode, nodes)
	for i := range edges {
		edges[i] = testEdge(t, i)
	}
	classes, err := SaSClasses(100) // tiny compressed SLOs: 8/13/18 ms
	if err != nil {
		t.Fatalf("SaSClasses: %v", err)
	}
	var est *core.TailEstimator
	if spec.Deadline != core.DeadlineNone {
		est, err = core.NewTailEstimator(nodes, dist.Deterministic{V: 1}, 100, 0)
		if err != nil {
			t.Fatalf("NewTailEstimator: %v", err)
		}
	}
	refs := make([]NodeRef, len(edges))
	for i, e := range edges {
		refs[i] = e.Ref()
	}
	h, err := NewHandler(HandlerConfig{
		Nodes:     refs,
		Spec:      spec,
		Classes:   classes,
		Estimator: est,
	})
	if err != nil {
		t.Fatalf("NewHandler: %v", err)
	}
	return h, edges
}

func validQuery(t *testing.T, id int64, nodes []int) Query {
	t.Helper()
	first, _ := testStore(t, 0).Span()
	q := Query{ID: id, Class: 0, Nodes: nodes,
		FromTs: make([]int64, len(nodes)), ToTs: make([]int64, len(nodes))}
	for i := range nodes {
		q.FromTs[i] = first
		q.ToTs[i] = first + 24*3600
	}
	return q
}

func TestHandlerValidation(t *testing.T) {
	classes, _ := SaSClasses(100)
	if _, err := NewHandler(HandlerConfig{Classes: classes, Spec: core.FIFO}); err == nil {
		t.Error("no nodes succeeded, want error")
	}
	h, _ := buildHandler(t, 2, core.FIFO)
	bad := []Query{
		{ID: 1}, // no tasks
		{ID: 1, Nodes: []int{0}, FromTs: []int64{1}},                            // window mismatch
		{ID: 1, Nodes: []int{5}, FromTs: []int64{1}, ToTs: []int64{2}},          // node out of range
		{ID: 1, Nodes: []int{0, 0}, FromTs: []int64{1, 1}, ToTs: []int64{2, 2}}, // duplicate node
		{ID: 1, Nodes: []int{0}, FromTs: []int64{10}, ToTs: []int64{5}},         // inverted window
	}
	for i, q := range bad {
		if err := h.Submit(q); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
	// NewHandler without estimator for a deadline policy fails.
	if _, err := NewHandler(HandlerConfig{
		Nodes:   []NodeRef{testEdge(t, 0).Ref()},
		Spec:    core.TFEDFQ,
		Classes: classes,
	}); err == nil {
		t.Error("deadline policy without estimator succeeded, want error")
	}
}

func TestHandlerDuplicateQueryID(t *testing.T) {
	// Node 0 holds its task for 200 ms, so query 7 is still in flight
	// when its ID comes round again; on a zero-delay node it can finish
	// first on a multi-core box, and a finished query's ID is free.
	classes, err := SaSClasses(100)
	if err != nil {
		t.Fatalf("SaSClasses: %v", err)
	}
	h, err := NewHandler(HandlerConfig{
		Nodes:   []NodeRef{testEdgeDelay(t, 0, 200).Ref(), testEdge(t, 1).Ref()},
		Spec:    core.FIFO,
		Classes: classes,
	})
	if err != nil {
		t.Fatalf("NewHandler: %v", err)
	}
	q := validQuery(t, 7, []int{0})
	if err := h.Submit(q); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	q2 := validQuery(t, 7, []int{1})
	if err := h.Submit(q2); err == nil {
		t.Error("duplicate query ID accepted")
	}
	h.Drain()
}

func TestHandlerProcessesAndAggregates(t *testing.T) {
	h, _ := buildHandler(t, 4, core.TFEDFQ)
	const n = 60
	for i := 0; i < n; i++ {
		q := validQuery(t, int64(i), []int{i % 4, (i + 1) % 4})
		if err := h.Submit(q); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	h.Drain()
	stats := h.Snapshot()
	if len(stats.Errors) != 0 {
		t.Fatalf("errors: %v", stats.Errors)
	}
	rec := stats.ByClass[0]
	if rec == nil || rec.Count() != n {
		t.Fatalf("class-0 count = %v, want %d", rec, n)
	}
	// Post-queuing samples attributed to the nodes' cluster (all four
	// test nodes are in server-room, IDs 0-3).
	sr := stats.PerClusterTpo[ServerRoom]
	if sr == nil || sr.Count() != 2*n {
		t.Fatalf("server-room tpo samples = %v, want %d", sr, 2*n)
	}
	if stats.ElapsedMs <= 0 {
		t.Error("ElapsedMs not positive")
	}
	var busy float64
	for _, b := range stats.NodeBusyMs {
		busy += b
	}
	if busy <= 0 {
		t.Error("no busy time recorded")
	}
}

// TestHandlerSurvivesDeadNode injects a transport failure: one edge node
// is shut down before queries target it. The handler must record errors
// but still complete every query so Drain returns.
func TestHandlerSurvivesDeadNode(t *testing.T) {
	h, edges := buildHandler(t, 3, core.FIFO)
	if err := edges[1].Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 0; i < 12; i++ {
		q := validQuery(t, int64(i), []int{0, 1, 2})
		if err := h.Submit(q); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	h.Drain() // must not hang
	stats := h.Snapshot()
	if len(stats.Errors) == 0 {
		t.Error("no errors recorded despite dead node")
	}
	for _, err := range stats.Errors {
		if !strings.Contains(err.Error(), "node 1") {
			t.Errorf("unexpected error target: %v", err)
		}
	}
	// Queries still completed (with degraded aggregates).
	if rec := stats.ByClass[0]; rec == nil || rec.Count() != 12 {
		t.Errorf("completed count = %v, want 12", rec)
	}
}

func TestHandlerOnlineUpdatesFlow(t *testing.T) {
	h, _ := buildHandler(t, 2, core.TFEDFQ)
	est := h.cfg.Estimator
	before, err := est.ServerQuantile(0, 0.5)
	if err != nil {
		t.Fatalf("ServerQuantile: %v", err)
	}
	for i := 0; i < 200; i++ {
		if err := h.Submit(validQuery(t, int64(i), []int{0})); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	h.Drain()
	after, err := est.ServerQuantile(0, 0.5)
	if err != nil {
		t.Fatalf("ServerQuantile: %v", err)
	}
	// Seeded at 1 ms; real round trips over loopback with zero injected
	// delay are well under that, so the median must have moved down.
	if after >= before {
		t.Errorf("online updates did not move the estimate: before %v, after %v", before, after)
	}
}
