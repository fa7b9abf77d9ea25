package control

import (
	"math/rand"
	"testing"
)

func TestActiveSetLifecycle(t *testing.T) {
	a, err := NewActiveSet(6, 3, 100)
	if err != nil {
		t.Fatalf("NewActiveSet: %v", err)
	}
	if _, err := NewActiveSet(0, 0, 0); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := NewActiveSet(4, 5, 0); err == nil {
		t.Error("initialActive > total accepted")
	}
	if a.ActiveCount() != 3 || a.WarmingCount() != 0 || a.Total() != 6 {
		t.Fatalf("initial counts: active %d warming %d total %d", a.ActiveCount(), a.WarmingCount(), a.Total())
	}
	if a.State(0) != On || a.State(3) != Off {
		t.Fatal("prefix-active convention violated at init")
	}

	// Warm the next slot up in two half-steps.
	if got := a.StartWarm(); got != 3 {
		t.Fatalf("StartWarm = %d, want 3", got)
	}
	if a.State(3) != Warming || a.WarmingCount() != 1 {
		t.Fatalf("slot 3 not warming: state %v warming %d", a.State(3), a.WarmingCount())
	}
	a.AdvanceWarm(50)
	if a.State(3) != Warming || a.ActiveCount() != 3 {
		t.Fatalf("slot 3 promoted after half ramp: state %v active %d", a.State(3), a.ActiveCount())
	}
	a.AdvanceWarm(50)
	if a.State(3) != On || a.ActiveCount() != 4 || a.WarmingCount() != 0 {
		t.Fatal("slot 3 not promoted at full warmth")
	}

	// Zero warm-up activates instantly.
	b, _ := NewActiveSet(2, 1, 0)
	if got := b.StartWarm(); got != 1 || b.State(1) != On {
		t.Fatal("zero-warmup StartWarm did not activate instantly")
	}
	if got := b.StartWarm(); got != -1 {
		t.Fatalf("StartWarm with no off slot = %d, want -1", got)
	}

	// Deactivate drops warming slots first, then the highest on slot.
	a.StartWarm() // slot 4 warming
	if got := a.Deactivate(); got != 4 {
		t.Fatalf("Deactivate = %d, want warming slot 4", got)
	}
	if got := a.Deactivate(); got != 3 {
		t.Fatalf("Deactivate = %d, want highest on slot 3", got)
	}
	// Never below one provisioned slot.
	for i := 0; i < 10; i++ {
		a.Deactivate()
	}
	if a.Provisioned() != 1 {
		t.Fatalf("Provisioned after draining = %d, want 1", a.Provisioned())
	}
	if got := a.Deactivate(); got != -1 {
		t.Fatalf("Deactivate on last slot = %d, want -1", got)
	}
}

func TestPlaceRespectsActiveSet(t *testing.T) {
	a, err := NewActiveSet(8, 4, 100)
	if err != nil {
		t.Fatalf("NewActiveSet: %v", err)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		out := a.Place(r, 3)
		if len(out) != 3 {
			t.Fatalf("Place returned %d slots", len(out))
		}
		seen := map[int]bool{}
		for _, s := range out {
			if s < 0 || s >= 4 {
				t.Fatalf("placed on non-active slot %d", s)
			}
			if seen[s] {
				t.Fatalf("duplicate slot %d in %v", s, out)
			}
			seen[s] = true
		}
	}
}

func TestPlaceWeighsWarmingSlots(t *testing.T) {
	a, err := NewActiveSet(8, 4, 100)
	if err != nil {
		t.Fatalf("NewActiveSet: %v", err)
	}
	a.StartWarm() // slot 4
	a.AdvanceWarm(30)
	r := rand.New(rand.NewSource(2))
	hits := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, s := range a.Place(r, 2) {
			if s == 4 {
				hits++
			}
		}
	}
	// Slot 4 joins the pool with p=0.3; once in a 5-slot pool a 2-slot
	// placement picks it with p=2/5 -> expected share ~0.12 of queries.
	share := float64(hits) / trials
	if share < 0.08 || share > 0.17 {
		t.Errorf("warming slot share = %v, want ~0.12", share)
	}

	// A fully active pool spreads uniformly across the first 4 slots only.
	counts := map[int]int{}
	for i := 0; i < 1000; i++ {
		for _, s := range a.Place(r, 4) {
			counts[s]++
		}
	}
	if counts[4] == 0 {
		t.Error("warming slot never placed at fanout 4")
	}
}

func TestPlaceWidensWhenPoolShort(t *testing.T) {
	a, err := NewActiveSet(4, 2, 100)
	if err != nil {
		t.Fatalf("NewActiveSet: %v", err)
	}
	a.StartWarm() // slot 2 at warm 0: never joins the sampled pool
	r := rand.New(rand.NewSource(3))
	// fanout 3 > 2 active: must widen to the warming slot deterministically.
	out := a.Place(r, 3)
	seen := map[int]bool{}
	for _, s := range out {
		seen[s] = true
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Fatalf("widened placement %v missing provisioned slots", out)
	}
	// fanout 4 > provisioned: falls back to the off slot as a last resort.
	out = a.Place(r, 4)
	seen = map[int]bool{}
	for _, s := range out {
		seen[s] = true
	}
	if len(seen) != 4 {
		t.Fatalf("full-width placement %v not distinct", out)
	}
}
