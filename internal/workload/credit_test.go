package workload

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// waitParked spins until at least n acquirers are parked on the gate's
// wait channel. White-box (it reads g.waiters) so the blocking tests can
// synchronize without wall-clock sleeps — the workload package is
// virtual-time territory and forbidcall's simclock row covers its tests
// too.
func waitParked(g *CreditGate, n int) {
	for {
		g.mu.Lock()
		w := g.waiters
		g.mu.Unlock()
		if w >= n {
			return
		}
		runtime.Gosched()
	}
}

func TestCreditGateTryAcquireRelease(t *testing.T) {
	g, err := NewCreditGate(2)
	if err != nil {
		t.Fatalf("NewCreditGate: %v", err)
	}
	if _, err := NewCreditGate(0); err == nil {
		t.Error("zero limit accepted")
	}
	if !g.TryAcquire() || !g.TryAcquire() {
		t.Fatal("first two acquires failed")
	}
	if g.TryAcquire() {
		t.Fatal("third acquire succeeded past limit 2")
	}
	if g.InFlight() != 2 || g.Limit() != 2 {
		t.Fatalf("InFlight/Limit = %d/%d, want 2/2", g.InFlight(), g.Limit())
	}
	g.Release()
	if !g.TryAcquire() {
		t.Fatal("acquire after release failed")
	}
}

func TestCreditGateShrinkNeverRevokes(t *testing.T) {
	g, _ := NewCreditGate(4)
	for i := 0; i < 4; i++ {
		g.TryAcquire()
	}
	g.SetLimit(1)
	if g.Limit() != 1 {
		t.Fatalf("Limit = %d, want 1", g.Limit())
	}
	if g.InFlight() != 4 {
		t.Fatalf("shrink revoked credits: InFlight = %d", g.InFlight())
	}
	if g.TryAcquire() {
		t.Fatal("acquire succeeded while over the shrunken limit")
	}
	for i := 0; i < 4; i++ {
		g.Release()
	}
	if !g.TryAcquire() || g.TryAcquire() {
		t.Fatal("gate did not settle at the new limit 1")
	}
	g.SetLimit(0) // clamps to 1
	if g.Limit() != 1 {
		t.Fatalf("SetLimit(0) clamped to %d, want 1", g.Limit())
	}
}

func TestCreditGateAcquireBlocksAndWakes(t *testing.T) {
	g, _ := NewCreditGate(1)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	got := make(chan error, 1)
	go func() { got <- g.Acquire(context.Background()) }()
	waitParked(g, 1)
	select {
	case err := <-got:
		t.Fatalf("Acquire returned %v while gate was full", err)
	default:
	}
	g.Release()
	if err := <-got; err != nil {
		t.Fatalf("Acquire after release: %v", err)
	}

	// A raised limit also wakes waiters.
	done := make(chan error, 1)
	go func() { done <- g.Acquire(context.Background()) }()
	waitParked(g, 1)
	g.SetLimit(2)
	if err := <-done; err != nil {
		t.Fatalf("Acquire after SetLimit: %v", err)
	}
}

func TestCreditGateAcquireHonorsContext(t *testing.T) {
	g, _ := NewCreditGate(1)
	g.TryAcquire()
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() { got <- g.Acquire(ctx) }()
	cancel()
	if err := <-got; err == nil {
		t.Fatal("Acquire succeeded after cancel")
	}
}

func TestCreditGateReleasePanicsOnUnderflow(t *testing.T) {
	g, _ := NewCreditGate(1)
	defer func() {
		if recover() == nil {
			t.Fatal("unpaired Release did not panic")
		}
	}()
	g.Release()
}

// TestCreditGateConcurrentStress is the -race gate for the credit path:
// many producer goroutines acquire/release while a controller goroutine
// jitters the limit. The held count must never exceed the largest limit
// ever set, and all credits must drain at the end.
func TestCreditGateConcurrentStress(t *testing.T) {
	const producers = 16
	const perProducer = 400
	const maxLimit = 8
	g, _ := NewCreditGate(maxLimit)

	var inFlight atomic.Int64
	var peak atomic.Int64
	stop := make(chan struct{})
	var ctl sync.WaitGroup
	ctl.Add(1)
	go func() {
		defer ctl.Done()
		n := 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			g.SetLimit(1 + n%maxLimit)
			n++
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := g.Acquire(context.Background()); err != nil {
					t.Errorf("Acquire: %v", err)
					return
				}
				cur := inFlight.Add(1)
				for {
					old := peak.Load()
					if cur <= old || peak.CompareAndSwap(old, cur) {
						break
					}
				}
				inFlight.Add(-1)
				g.Release()
			}
		}()
	}
	wg.Wait()
	close(stop)
	ctl.Wait()

	if p := peak.Load(); p > maxLimit {
		t.Errorf("peak concurrent holders %d exceeded max limit %d", p, maxLimit)
	}
	if g.InFlight() != 0 {
		t.Errorf("credits leaked: InFlight = %d at drain", g.InFlight())
	}
}
