package obs

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// traceFixture is a two-task query lifecycle plus a rejection, covering
// every event kind.
func traceFixture() []Event {
	ring, _ := NewRing(64)
	tr := NewTracer(TracerConfig{Sink: ring})
	tr.Query(KindArrival, 1, 0, 0, 2)
	tr.Query(KindDeadline, 1, 0, 0, 11)
	tr.TaskEvent(KindEnqueue, 1, 0, 0, 0, 0, 0)
	tr.TaskEvent(KindEnqueue, 1, 0, 1, 1, 0, 0)
	tr.TaskEvent(KindDispatch, 1, 0, 0, 0, 0, 0)
	tr.QueueDepth(1, 1, 1)
	tr.TaskEvent(KindDispatch, 2, 0, 1, 1, 0, 1)
	tr.TaskEvent(KindServiceStart, 2, 0, 1, 1, 0, 0)
	tr.TaskEvent(KindServiceEnd, 3, 0, 0, 0, 0, 2)
	tr.TaskEvent(KindServiceEnd, 4, 0, 1, 1, 0, 2)
	tr.Query(KindQueryDone, 4, 0, 0, 3)
	tr.Query(KindReject, 5, 1, 1, 0)
	// Infinite deadline (deadline-less policy) must render as null.
	tr.Query(KindDeadline, 5, 2, 1, math.Inf(1))
	return ring.Snapshot(nil)
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, traceFixture()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	checkGolden(t, "chrometrace.golden", buf.Bytes())
}

func TestWriteChromeTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, traceFixture()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := WriteChromeTrace(&b, traceFixture()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two exports of the same events differ")
	}
}

// TestWriteChromeTraceValidJSON pins the acceptance criterion: the export
// is well-formed JSON with the trace_event envelope, loadable by
// chrome://tracing.
func TestWriteChromeTraceValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, traceFixture()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := ValidateChromeTrace(&buf); err != nil {
		t.Fatalf("export does not validate: %v", err)
	}
}

func TestValidateTrace(t *testing.T) {
	good := `{"displayTimeUnit":"ms","traceEvents":[
{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"queries"}},
{"name":"arrival q1","ph":"i","pid":0,"tid":0,"ts":100,"s":"t"},
{"name":"query q1","ph":"X","pid":0,"tid":0,"ts":100,"dur":50}
]}`
	if err := ValidateChromeTrace(strings.NewReader(good)); err != nil {
		t.Errorf("good trace rejected: %v", err)
	}
	bad := []struct{ name, doc string }{
		{"not json", `{"traceEvents":`},
		{"wrong unit", `{"displayTimeUnit":"ns","traceEvents":[{"name":"a","ph":"i","pid":0,"tid":0,"ts":1}]}`},
		{"empty", `{"displayTimeUnit":"ms","traceEvents":[]}`},
		{"bad phase", `{"displayTimeUnit":"ms","traceEvents":[{"name":"a","ph":"Z","pid":0,"tid":0,"ts":1}]}`},
		{"missing ts", `{"displayTimeUnit":"ms","traceEvents":[{"name":"a","ph":"i","pid":0,"tid":0}]}`},
		{"slice without dur", `{"displayTimeUnit":"ms","traceEvents":[{"name":"a","ph":"X","pid":0,"tid":0,"ts":1}]}`},
	}
	for _, tc := range bad {
		if err := ValidateChromeTrace(strings.NewReader(tc.doc)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestWriteChromeTraceOrdersByTime pins that unsorted input (a concurrent
// ring's lock order) still exports in (time, seq) order.
func TestWriteChromeTraceOrdersByTime(t *testing.T) {
	events := []Event{
		{TimeMs: 5, Seq: 0, Kind: KindArrival, QueryID: 1, Server: -1, Task: -1},
		{TimeMs: 1, Seq: 1, Kind: KindArrival, QueryID: 0, Server: -1, Task: -1},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	out := buf.String()
	if q0 := bytes.Index(buf.Bytes(), []byte("arrival q0")); q0 < 0 {
		t.Fatalf("missing q0 arrival in %s", out)
	} else if q1 := bytes.Index(buf.Bytes(), []byte("arrival q1")); q1 < q0 {
		t.Errorf("later event exported first:\n%s", out)
	}
}
