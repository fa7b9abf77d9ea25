package cluster

import (
	"testing"

	"tailguard/internal/sim"
)

// TestPerfSmokeWheelVsHeap is the wheel's end-to-end equivalence gate:
// one policy × fault plan × seed simulated end to end on the timing
// wheel and on the reference binary heap must produce bit-identical
// Results. The scenario is the canonical all-fault-kinds plan with
// hedging and retries enabled, so the comparison covers clock-stopping
// windows, crash re-dispatch, and hedge timers — every engine access
// pattern the wheel's clamped batch insertion exists for.
func TestPerfSmokeWheelVsHeap(t *testing.T) {
	wheel, err := Run(resilientConfig(t, 1))
	if err != nil {
		t.Fatalf("wheel Run: %v", err)
	}
	cfg := resilientConfig(t, 1)
	a := NewArena()
	a.engine = sim.NewHeapEngine()
	cfg.Arena = a
	heap, err := Run(cfg)
	if err != nil {
		t.Fatalf("heap Run: %v", err)
	}
	if err := wheel.Equal(heap); err != nil {
		t.Errorf("wheel and heap runs diverge: %v", err)
	}
}
