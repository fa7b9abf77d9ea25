package saas

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tailguard/internal/core"
	"tailguard/internal/dist"
	"tailguard/internal/obs"
)

// buildObsHandler is buildHandler with a lifecycle tracer attached.
func buildObsHandler(t *testing.T, nodes int) (*Handler, *obs.LockedRing) {
	t.Helper()
	edges := make([]*EdgeNode, nodes)
	for i := range edges {
		edges[i] = testEdge(t, i)
	}
	classes, err := SaSClasses(100)
	if err != nil {
		t.Fatalf("SaSClasses: %v", err)
	}
	est, err := core.NewTailEstimator(nodes, dist.Deterministic{V: 1}, 100, 0)
	if err != nil {
		t.Fatalf("NewTailEstimator: %v", err)
	}
	refs := make([]NodeRef, len(edges))
	for i, e := range edges {
		refs[i] = e.Ref()
	}
	ring, err := obs.NewLockedRing(4096)
	if err != nil {
		t.Fatalf("NewLockedRing: %v", err)
	}
	h, err := NewHandler(HandlerConfig{
		Nodes:     refs,
		Spec:      core.TFEDFQ,
		Classes:   classes,
		Estimator: est,
		Obs:       obs.NewTracer(obs.TracerConfig{Sink: ring}),
	})
	if err != nil {
		t.Fatalf("NewHandler: %v", err)
	}
	return h, ring
}

func TestHandlerMetricsAndDebugEndpoints(t *testing.T) {
	h, ring := buildObsHandler(t, 2)
	const n = 20
	for i := 0; i < n; i++ {
		if err := h.Submit(validQuery(t, int64(i), []int{i % 2, (i + 1) % 2})); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	h.Drain()
	// Served over a real loopback listener, as a scraper sees it.
	srv := httptest.NewServer(h.DebugMux())
	defer srv.Close()

	// /metrics: valid Prometheus exposition reflecting the run.
	ct, body := httpGet(t, srv.URL+"/metrics")
	if !strings.Contains(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	if err := obs.ValidateProm(bytes.NewReader(body)); err != nil {
		t.Errorf("/metrics does not validate: %v\n%s", err, body)
	}
	for _, want := range []string{
		"# TYPE tg_queries_total counter",
		`tg_queries_total{class="0"} 20`,
		"# TYPE tg_query_latency_ms summary",
		"tg_tasks_total 40",
		`tg_queue_depth{node="0"}`,
		`tg_task_service_ms_count{cluster="server-room"} 40`,
		"tg_task_wait_ms_count 40",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	// /debug/queues: drained handler shows empty queues.
	_, body = httpGet(t, srv.URL+"/debug/queues")
	var dbg QueuesDebug
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatalf("/debug/queues not JSON: %v\n%s", err, body)
	}
	if len(dbg.Queues) != 2 {
		t.Fatalf("queues = %d, want 2", len(dbg.Queues))
	}
	if dbg.InFlight != 0 || dbg.Tasks != 40 {
		t.Errorf("in_flight/tasks = %d/%d, want 0/40", dbg.InFlight, dbg.Tasks)
	}
	for _, q := range dbg.Queues {
		if q.Depth != 0 || q.Busy {
			t.Errorf("drained node %d still busy/queued: %+v", q.Node, q)
		}
		if q.BusyMs <= 0 {
			t.Errorf("node %d has no recorded occupancy", q.Node)
		}
	}

	// The tracer saw the full lifecycle: n arrivals, n deadlines, 2n
	// enqueues/dispatches/service ends, n completions.
	events := ring.Snapshot(nil)
	counts := map[obs.Kind]int{}
	for _, e := range events {
		counts[e.Kind]++
	}
	want := map[obs.Kind]int{
		obs.KindArrival:    n,
		obs.KindDeadline:   n,
		obs.KindEnqueue:    2 * n,
		obs.KindDispatch:   2 * n,
		obs.KindServiceEnd: 2 * n,
		obs.KindQueryDone:  n,
	}
	for k, c := range want {
		if counts[k] != c {
			t.Errorf("%v events = %d, want %d", k, counts[k], c)
		}
	}
	var trace bytes.Buffer
	if err := obs.WriteChromeTrace(&trace, events); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := obs.ValidateChromeTrace(&trace); err != nil {
		t.Errorf("Chrome trace of the run does not validate: %v", err)
	}
}

// httpGet fetches url and returns its Content-Type and body, failing the
// test on any status other than 200.
func httpGet(t *testing.T, url string) (string, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return resp.Header.Get("Content-Type"), body
}
