package obs

import (
	"bytes"
	"strings"
	"testing"
)

// fillRegistry builds a deterministic registry resembling what the
// testbed exports: per-class counters, a queue-depth gauge, and a
// latency summary.
func fillRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	for _, class := range []string{"0", "1"} {
		labels, err := Labels("class", class)
		if err != nil {
			t.Fatalf("Labels: %v", err)
		}
		c, err := r.Counter("tg_queries_total", "Queries admitted per class.", labels)
		if err != nil {
			t.Fatalf("Counter: %v", err)
		}
		c.Add(uint64(10 + len(class)*7))
	}
	rej, err := r.Counter("tg_rejected_total", "Queries rejected by admission control.", "")
	if err != nil {
		t.Fatalf("Counter: %v", err)
	}
	rej.Add(3)
	g, err := r.Gauge("tg_queue_depth", "Tasks waiting per server.", `server="2"`)
	if err != nil {
		t.Fatalf("Gauge: %v", err)
	}
	g.Set(4)
	s, err := r.Summary("tg_query_latency_ms", "End-to-end query latency.", "")
	if err != nil {
		t.Fatalf("Summary: %v", err)
	}
	for i := 1; i <= 100; i++ {
		if err := s.Observe(float64(i)); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fillRegistry(t).WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	checkGolden(t, "prom.golden", buf.Bytes())
}

func TestWritePrometheusDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := fillRegistry(t).WritePrometheus(&a); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := fillRegistry(t).WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("two expositions of identical registries differ:\n%s\n---\n%s", a.String(), b.String())
	}
}

// TestWritePrometheusShape pins structural invariants of the exposition
// format without depending on exact values.
func TestWritePrometheusShape(t *testing.T) {
	var buf bytes.Buffer
	if err := fillRegistry(t).WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	if err := ValidateProm(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition does not validate: %v\n%s", err, out)
	}
	var lastFamily string
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition:\n%s", out)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			family := strings.Fields(line)[2]
			if family < lastFamily {
				t.Errorf("family %q out of order after %q", family, lastFamily)
			}
			lastFamily = family
		}
	}
	for _, want := range []string{
		`tg_queries_total{class="0"}`,
		`tg_queries_total{class="1"}`,
		`tg_query_latency_ms{quantile="0.99"}`,
		"tg_query_latency_ms_sum",
		"tg_query_latency_ms_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestValidateProm(t *testing.T) {
	good := `# HELP tg_tasks_total Tasks dispatched.
# TYPE tg_tasks_total counter
tg_tasks_total 40
# TYPE tg_query_latency_ms summary
tg_query_latency_ms{quantile="0.99"} 12.5
tg_query_latency_ms_sum 100.25
tg_query_latency_ms_count 8
# TYPE tg_queue_depth gauge
tg_queue_depth{node="0"} +Inf
`
	if err := ValidateProm(strings.NewReader(good)); err != nil {
		t.Errorf("good exposition rejected: %v", err)
	}
	bad := []struct{ name, doc string }{
		{"empty", ""},
		{"untyped sample", "tg_tasks_total 40\n"},
		{"bad value", "# TYPE a counter\na fortytwo\n"},
		{"bad kind", "# TYPE a thing\na 1\n"},
		{"duplicate type", "# TYPE a counter\n# TYPE a counter\na 1\n"},
		{"malformed comment", "# NOPE a counter\na 1\n"},
	}
	for _, tc := range bad {
		if err := ValidateProm(strings.NewReader(tc.doc)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestLabelsSortedAndValidated(t *testing.T) {
	sig, err := Labels("server", "3", "class", "1")
	if err != nil {
		t.Fatalf("Labels: %v", err)
	}
	if want := `class="1",server="3"`; sig != want {
		t.Errorf("Labels = %q, want %q", sig, want)
	}
	if _, err := Labels("only-key"); err == nil {
		t.Error("odd pair count accepted")
	}
	if _, err := Labels("bad-name", "v"); err == nil {
		t.Error("invalid label name accepted")
	}
	if sig, err := Labels(); err != nil || sig != "" {
		t.Errorf("empty Labels = %q, %v", sig, err)
	}
}

func TestRegistryKindConflict(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Counter("tg_x", "", ""); err != nil {
		t.Fatalf("Counter: %v", err)
	}
	if _, err := r.Gauge("tg_x", "", ""); err == nil {
		t.Error("re-registering counter family as gauge succeeded")
	}
	if _, err := r.Counter("9bad", "", ""); err == nil {
		t.Error("invalid metric name accepted")
	}
	// Same (name, labels) resolves to the same instance.
	a, _ := r.Counter("tg_x", "", "")
	b, _ := r.Counter("tg_x", "", "")
	if a != b {
		t.Error("duplicate registration returned distinct counters")
	}
}
