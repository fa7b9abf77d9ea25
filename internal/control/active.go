package control

import (
	"fmt"
	"math/rand"
)

// ServerState is a server slot's position in the autoscale lifecycle.
type ServerState uint8

const (
	// Off slots are provisioned in the simulator but take no load.
	Off ServerState = iota
	// Warming slots are ramping up: they take load with probability equal
	// to their warm fraction, modeling caches filling and JITs warming.
	Warming
	// On slots take full load.
	On
)

// ActiveSet tracks which of a fixed pool of provisioned server slots are
// taking load, and places queries on them with warm-up-aware weights. It
// is single-owner like the Controller; the placement draws come from the
// caller's seeded *rand.Rand so runs replay bit-identically.
type ActiveSet struct {
	state    []ServerState
	warm     []float64 // warm fraction per slot, meaningful while Warming
	warmupMs float64
	active   int
	warming  int
	scratch  []int // placement pool, reused across calls
}

// NewActiveSet builds a set of total slots with the first initialActive
// fully on and the rest off.
func NewActiveSet(total, initialActive int, warmupMs float64) (*ActiveSet, error) {
	if total < 1 {
		return nil, fmt.Errorf("control: active set needs >= 1 slot, got %d", total)
	}
	if initialActive < 1 || initialActive > total {
		return nil, fmt.Errorf("control: initial active %d outside [1, %d]", initialActive, total)
	}
	if warmupMs < 0 {
		return nil, fmt.Errorf("control: warmup must be >= 0, got %v", warmupMs)
	}
	a := &ActiveSet{
		state:    make([]ServerState, total),
		warm:     make([]float64, total),
		warmupMs: warmupMs,
		active:   initialActive,
		scratch:  make([]int, 0, total),
	}
	for i := 0; i < initialActive; i++ {
		a.state[i] = On
	}
	return a, nil
}

// Total returns the number of provisioned slots.
func (a *ActiveSet) Total() int { return len(a.state) }

// ActiveCount returns the number of fully on slots.
func (a *ActiveSet) ActiveCount() int { return a.active }

// WarmingCount returns the number of slots on the warm-up ramp.
func (a *ActiveSet) WarmingCount() int { return a.warming }

// Provisioned returns the slots taking any load (on + warming).
func (a *ActiveSet) Provisioned() int { return a.active + a.warming }

// State returns slot i's lifecycle state.
func (a *ActiveSet) State(i int) ServerState { return a.state[i] }

// StartWarm turns the lowest off slot into a warming one (immediately on
// when the warm-up ramp is zero) and returns its index, or -1 when every
// slot is already taking load.
func (a *ActiveSet) StartWarm() int {
	for i, st := range a.state {
		if st != Off {
			continue
		}
		if a.warmupMs == 0 {
			a.state[i] = On
			a.active++
		} else {
			a.state[i] = Warming
			a.warm[i] = 0
			a.warming++
		}
		return i
	}
	return -1
}

// Deactivate turns the highest load-taking slot off (warming slots first,
// so an aborted scale-up costs nothing) and returns its index, or -1 when
// only one slot remains. The prefix-active convention means scale-downs
// always release the most recently added slot.
func (a *ActiveSet) Deactivate() int {
	if a.Provisioned() <= 1 {
		return -1
	}
	for i := len(a.state) - 1; i >= 0; i-- {
		if a.state[i] == Warming {
			a.state[i] = Off
			a.warm[i] = 0
			a.warming--
			return i
		}
	}
	for i := len(a.state) - 1; i >= 0; i-- {
		if a.state[i] == On {
			a.state[i] = Off
			a.active--
			return i
		}
	}
	return -1
}

// AdvanceWarm moves every warming slot dtMs further up the ramp,
// promoting slots that reach full warmth.
func (a *ActiveSet) AdvanceWarm(dtMs float64) {
	if a.warming == 0 {
		return
	}
	for i, st := range a.state {
		if st != Warming {
			continue
		}
		a.warm[i] += dtMs / a.warmupMs
		if a.warm[i] >= 1 {
			a.warm[i] = 1
			a.state[i] = On
			a.warming--
			a.active++
		}
	}
}

// Place selects fanout distinct load-taking slots: on slots always
// eligible, warming slots eligible with probability equal to their warm
// fraction (one draw per warming slot). It matches the
// workload.GeneratorConfig.Placement signature. If the eligible pool is
// smaller than fanout it deterministically widens to every provisioned
// slot, then — only if fanout exceeds even those — to off slots, so a
// well-configured run (min servers >= max fanout) never places on an off
// slot.
func (a *ActiveSet) Place(r *rand.Rand, fanout int) []int {
	pool := a.scratch[:0]
	for i, st := range a.state {
		switch st {
		case On:
			pool = append(pool, i)
		case Warming:
			if r.Float64() < a.warm[i] {
				pool = append(pool, i)
			}
		}
	}
	if len(pool) < fanout {
		pool = pool[:0]
		for i, st := range a.state {
			if st != Off {
				pool = append(pool, i)
			}
		}
		for i, st := range a.state {
			if len(pool) >= fanout {
				break
			}
			if st == Off {
				pool = append(pool, i)
			}
		}
	}
	a.scratch = pool
	out := make([]int, fanout)
	n := len(pool)
	for i := 0; i < fanout; i++ {
		j := i + r.Intn(n-i)
		pool[i], pool[j] = pool[j], pool[i]
		out[i] = pool[i]
	}
	return out
}
