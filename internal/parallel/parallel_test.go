package parallel

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// sequentialMap is the reference semantics Map must reproduce.
func sequentialMap[T any](n int, job func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	for i := 0; i < n; i++ {
		v, err := job(i)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 33} {
		p := NewPool(workers)
		got, err := Map(p, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: Map: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyAndNilPool(t *testing.T) {
	got, err := Map[int](nil, 0, func(int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Errorf("Map(n=0) = %v, %v; want nil, nil", got, err)
	}
	got, err = Map(nil, 3, func(i int) (int, error) { return i, nil })
	if err != nil || !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("Map(nil pool) = %v, %v; want [0 1 2], nil", got, err)
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	failAt := map[int]bool{7: true, 3: true, 60: true}
	job := func(i int) (int, error) {
		if failAt[i] {
			return 0, fmt.Errorf("job %d failed", i)
		}
		return i, nil
	}
	want := "job 3 failed"
	for _, workers := range []int{1, 4, 16} {
		_, err := Map(NewPool(workers), 64, job)
		if err == nil || err.Error() != want {
			t.Errorf("workers=%d: err = %v, want %q", workers, err, want)
		}
	}
}

func TestMapMatchesSequentialRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	errBoom := errors.New("boom")
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(40)
		fail := make([]bool, n)
		for i := range fail {
			fail[i] = r.Float64() < 0.1
		}
		job := func(i int) (int, error) {
			if fail[i] {
				return 0, fmt.Errorf("%w at %d", errBoom, i)
			}
			return int(SplitMix64(uint64(i))), nil
		}
		wantOut, wantErr := sequentialMap(n, job)
		gotOut, gotErr := Map(NewPool(8), n, job)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: err mismatch: want %v, got %v", trial, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("trial %d: err = %q, want %q", trial, gotErr, wantErr)
			}
			continue
		}
		if !reflect.DeepEqual(wantOut, gotOut) {
			t.Fatalf("trial %d: out mismatch", trial)
		}
	}
}

func TestPoolWorkersResolution(t *testing.T) {
	if w := NewPool(0).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Errorf("NewPool(0).Workers() = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	if w := NewPool(-3).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Errorf("NewPool(-3).Workers() = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	if w := NewPool(5).Workers(); w != 5 {
		t.Errorf("NewPool(5).Workers() = %d, want 5", w)
	}
	var nilPool *Pool
	if w := nilPool.Workers(); w != runtime.GOMAXPROCS(0) {
		t.Errorf("(nil).Workers() = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
}

func TestPoolStats(t *testing.T) {
	p := NewPool(4)
	if _, err := Map(p, 10, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatalf("Map: %v", err)
	}
	launched, finished := p.Stats()
	if launched != 10 || finished != 10 {
		t.Errorf("Stats = (%d, %d), want (10, 10)", launched, finished)
	}
}

// TestPoolStress hammers one shared pool from many goroutines under the
// race detector: concurrent Map calls, jobs touching shared read-only
// state, and mixed successes/failures.
func TestPoolStress(t *testing.T) {
	p := NewPool(8)
	shared := make([]uint64, 256)
	for i := range shared {
		shared[i] = SplitMix64(uint64(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				n := 1 + (g+round)%31
				out, err := Map(p, n, func(i int) (uint64, error) {
					if g%5 == 0 && i == n-1 {
						return 0, errors.New("stress failure")
					}
					return shared[(g*31+i)%len(shared)] ^ SplitMix64(uint64(i)), nil
				})
				if g%5 == 0 {
					if err == nil {
						t.Errorf("goroutine %d round %d: want error", g, round)
					}
				} else if err != nil || len(out) != n {
					t.Errorf("goroutine %d round %d: out=%d err=%v", g, round, len(out), err)
				}
			}
		}()
	}
	wg.Wait()
	launched, finished := p.Stats()
	if launched != finished {
		t.Errorf("Stats launched=%d finished=%d, want equal after quiescence", launched, finished)
	}
}

// The canonical SplitMix64 stream seeded with 0 (Vigna's reference
// implementation) starts e220a8397b1dcdaf, 6e789e6aa1b965f4, 6c45d188009454f.
func TestSplitMix64KnownAnswers(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	const gamma = 0x9e3779b97f4a7c15
	for k, w := range want {
		if got := SplitMix64(uint64(k) * gamma); got != w {
			t.Errorf("SplitMix64(%d*gamma) = %#x, want %#x", k, got, w)
		}
	}
}

func TestDeriveSeedDeterministicAndDistinct(t *testing.T) {
	seen := make(map[int64]bool)
	for _, base := range []int64{0, 1, -7, 1 << 40} {
		for idx := 0; idx < 512; idx++ {
			s := DeriveSeed(base, idx)
			if s != DeriveSeed(base, idx) {
				t.Fatalf("DeriveSeed(%d, %d) not deterministic", base, idx)
			}
			if seen[s] {
				t.Fatalf("DeriveSeed collision at base=%d idx=%d", base, idx)
			}
			seen[s] = true
		}
	}
}
