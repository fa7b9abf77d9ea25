package sim

import (
	"fmt"
	"testing"
)

func TestRunBeforeStopsStrictlyBeforeLimit(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 3.5, 4} {
		at := at
		if err := e.Schedule(at, func() { fired = append(fired, at) }); err != nil {
			t.Fatal(err)
		}
	}
	e.RunBefore(3.5)
	if len(fired) != 3 || fired[2] != 3 {
		t.Fatalf("fired %v, want [1 2 3]", fired)
	}
	if e.Now() != 3 {
		t.Errorf("clock at %v after RunBefore(3.5), want 3 (not advanced to the limit)", e.Now())
	}
	if n := pending(e); n != 2 {
		t.Errorf("pending = %d, want 2", n)
	}
	// Deliveries for the next window (>= limit) must be schedulable.
	if err := e.Schedule(3.5, func() { fired = append(fired, 3.5) }); err != nil {
		t.Fatalf("scheduling at the window limit: %v", err)
	}
	e.Run()
	if len(fired) != 6 {
		t.Fatalf("fired %v, want all 6", fired)
	}
}

func TestShardSetWindowsDeliverInOrder(t *testing.T) {
	const shards = 4
	s := NewShardSet(shards)
	s.Start()
	defer s.Stop()

	// Each shard appends executed event IDs to its own log; windows
	// deliver a few events per shard at the window's start.
	logs := make([][]int, shards)
	window := 0
	setup := func(i int) error {
		base := window*100 + i*10
		lo := float64(window)
		for k := 0; k < 3; k++ {
			id := base + k
			if err := s.Engine(i).Schedule(lo+float64(k)*0.25, func() {
				logs[i] = append(logs[i], id)
			}); err != nil {
				return err
			}
		}
		return nil
	}
	for window = 0; window < 5; window++ {
		if err := s.RunWindow(float64(window+1), setup); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(nil); err != nil {
		t.Fatal(err)
	}
	for i, log := range logs {
		if len(log) != 15 {
			t.Fatalf("shard %d executed %d events, want 15: %v", i, len(log), log)
		}
		for w := 0; w < 5; w++ {
			for k := 0; k < 3; k++ {
				if want := w*100 + i*10 + k; log[w*3+k] != want {
					t.Fatalf("shard %d event %d = %d, want %d", i, w*3+k, log[w*3+k], want)
				}
			}
		}
	}
	if got := s.MaxNow(); got != 4.5 {
		t.Errorf("MaxNow = %v, want 4.5", got)
	}
}

func TestShardSetSetupErrorLowestIndexWins(t *testing.T) {
	s := NewShardSet(3)
	s.Start()
	defer s.Stop()
	err := s.RunWindow(1, func(i int) error {
		if i >= 1 {
			return fmt.Errorf("shard %d boom", i)
		}
		return nil
	})
	if err == nil || err.Error() != "shard 1 boom" {
		t.Fatalf("err = %v, want shard 1 boom", err)
	}
}

func TestShardSetReset(t *testing.T) {
	s := NewShardSet(2)
	s.Start()
	ran := make([]int, s.Len())
	if err := s.RunWindow(2, func(i int) error {
		return s.Engine(i).Schedule(1, func() { ran[i]++ })
	}); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	if ran[0] != 1 || ran[1] != 1 {
		t.Fatalf("ran = %v, want [1 1]", ran)
	}
	s.Reset()
	for i := 0; i < s.Len(); i++ {
		if s.Engine(i).Now() != 0 || pending(s.Engine(i)) != 0 {
			t.Fatalf("shard %d not reset", i)
		}
	}
	// A reset set restarts cleanly.
	s.Start()
	defer s.Stop()
	if err := s.Drain(nil); err != nil {
		t.Fatal(err)
	}
}
