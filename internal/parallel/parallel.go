// Package parallel runs independent deterministic jobs on a bounded
// worker pool with index-ordered result collection. It exists so the
// experiment harness can use every core without giving up the repo's
// determinism contract (DESIGN.md §7-§8): Map and Sweep return exactly
// what the equivalent sequential loop returns — same values, same error
// — regardless of worker count, so parallel and sequential sweeps are
// bit-identical.
//
// The contract requires jobs to be pure with respect to each other: a
// job may only read shared state and must derive any randomness from
// its own index (see DeriveSeed). The simulation runs the harness fans
// out already satisfy this — each cluster.Run owns its engine and RNG.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds the number of jobs in flight. The zero worker count (or a
// nil pool) resolves to GOMAXPROCS; 1 selects the exact sequential
// path. Pools carry no goroutines of their own — workers are spawned
// per Map call — so a Pool is cheap and needs no Close.
type Pool struct {
	workers int

	mu       sync.Mutex
	launched int64 // guarded by mu (jobs started across all Map calls)
	finished int64 // guarded by mu (jobs completed across all Map calls)
}

// NewPool returns a pool bounded to the given worker count. Zero or
// negative means GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the resolved worker bound.
func (p *Pool) Workers() int {
	if p == nil {
		return runtime.GOMAXPROCS(0)
	}
	return p.workers
}

// Stats reports how many jobs the pool has started and completed over
// its lifetime (cumulative across Map calls).
func (p *Pool) Stats() (launched, finished int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.launched, p.finished
}

// noteLaunched and noteFinished are no-ops on a nil pool, like Workers:
// Map(nil, ...) runs on ad-hoc workers with nothing to account to.
func (p *Pool) noteLaunched() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.launched++
	p.mu.Unlock()
}

func (p *Pool) noteFinished() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.finished++
	p.mu.Unlock()
}

// Map runs job(0..n-1) on the pool and returns the results in index
// order. Its observable behaviour is exactly that of the sequential
// loop
//
//	for i := 0; i < n; i++ { out[i], err = job(i); if err != nil { return nil, err } }
//
// for pure jobs: on failure it returns the error of the lowest-index
// failing job, and jobs whose index exceeds a lower failing index may
// be skipped (sequential execution would never reach them).
func Map[T any](p *Pool, n int, job func(int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers := p.Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		out := make([]T, n)
		for i := 0; i < n; i++ {
			p.noteLaunched()
			v, err := job(i)
			p.noteFinished()
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var minErr atomic.Int64 // lowest failing index so far; n = none
	minErr.Store(int64(n))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				if i > minErr.Load() {
					// A lower-index job already failed; the sequential
					// loop would have stopped before reaching this one.
					continue
				}
				p.noteLaunched()
				v, err := job(int(i))
				if err != nil {
					errs[i] = err
					for {
						cur := minErr.Load()
						if i >= cur || minErr.CompareAndSwap(cur, i) {
							break
						}
					}
				} else {
					out[i] = v
				}
				p.noteFinished()
			}
		}()
	}
	wg.Wait()
	if m := minErr.Load(); m < int64(n) {
		return nil, errs[m]
	}
	return out, nil
}

// Sweep runs pre-bound jobs in index order on the pool: Sweep(p, jobs)
// returns exactly what running each job sequentially would.
func Sweep[T any](p *Pool, jobs []func() (T, error)) ([]T, error) {
	return Map(p, len(jobs), func(i int) (T, error) { return jobs[i]() })
}

// SplitMix64 is the finalizer of Steele et al.'s SplitMix64 generator:
// a bijective avalanche mix over uint64. SplitMix64(k * 0x9e3779b97f4a7c15)
// for k = 0, 1, 2, ... reproduces the canonical SplitMix64 stream
// seeded with 0.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed maps a (base seed, job index) pair to a decorrelated
// per-job RNG seed. It is a pure function of its arguments, so the
// seeds a parallel sweep hands its jobs are identical to the ones the
// sequential loop would hand them — the root of the harness's
// bit-reproducibility. Adjacent indices land in unrelated parts of the
// seed space (unlike base+i, which correlates LCG streams).
func DeriveSeed(base int64, idx int) int64 {
	return int64(SplitMix64(uint64(base) + uint64(idx)*0x9e3779b97f4a7c15))
}
