package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"tailguard/internal/tgd"
)

// capture runs fn with a temp file as its output and returns what it
// wrote.
func capture(t *testing.T, fn func(out *os.File) error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out-")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, os.Stdout, nil); err == nil {
		t.Fatal("want error for unknown flag")
	}
	if err := run([]string{"-work", "-workers", "0"}, os.Stdout, nil); err == nil {
		t.Fatal("want error for zero workers")
	}
	if err := run([]string{"-enqueue", "3", "-fanout", "0"}, os.Stdout, nil); err == nil {
		t.Fatal("want error for zero fanout")
	}
	if _, err := buildDaemon(runConfig{workloadStr: "no-such-workload", sloMs: 50, leaseMs: 1000, retryBudget: 1}); err == nil {
		t.Fatal("want error for unknown workload")
	}
}

// TestDaemonWorkerProducerRoundTrip boots the daemon mode over a real
// socket, drives the producer and worker modes against it, and shuts it
// down with the signal it would receive in production.
func TestDaemonWorkerProducerRoundTrip(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "tgd.wal")
	ready := make(chan string, 1)
	daemonErr := make(chan error, 1)
	go func() {
		daemonErr <- run([]string{
			"-addr", "127.0.0.1:0",
			"-journal", journal,
			"-workload", "xapian", "-slo-ms", "100",
			"-lease-ms", "200", "-repair-ms", "5",
		}, mustDevNull(t), ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-daemonErr:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	url := "http://" + addr

	// Producer mode: the daemon has an estimator, so enqueue needs no
	// explicit deadline and the response carries the TF-EDFQ budget.
	out := capture(t, func(f *os.File) error {
		return run([]string{"-enqueue", "5", "-fanout", "2", "-daemon", url}, f, nil)
	})
	if !strings.Contains(out, "enqueued 5 queries (10 tasks)") {
		t.Fatalf("producer output: %s", out)
	}

	// Worker mode drains them and exits once idle.
	out = capture(t, func(f *os.File) error {
		return run([]string{"-work", "-daemon", url, "-workers", "2",
			"-service-ms", "0.1", "-idle-exit", "300ms"}, f, nil)
	})
	if !strings.Contains(out, "completed=10") {
		t.Fatalf("worker output: %s", out)
	}

	client := tgd.NewClient(url, nil)
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.QueriesDone != 5 || st.CompletedTasks != 10 {
		t.Fatalf("stats after drain: done=%d tasks=%d, want 5/10", st.QueriesDone, st.CompletedTasks)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-daemonErr:
		if err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not stop on SIGTERM")
	}
}

// mustDevNull opens /dev/null for discarded command output.
func mustDevNull(t *testing.T) *os.File {
	t.Helper()
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}
