package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the p-quantile of an ascending slice by linear
// interpolation between order statistics (the rule
// metrics.LatencyRecorder uses), or NaN when the slice is empty.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns v sorted ascending, leaving v untouched.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// windowRates bins event times (seconds since the phase start) into
// windows of width w over [0, span) and returns events per second for
// every window that lies wholly inside the span. Saturation throughput
// is the median of these, so one slow second (a GC cycle, a noisy
// neighbour) does not move the number.
func windowRates(times []float64, span, w float64, weight float64) []float64 {
	n := int(span / w)
	if n < 1 {
		n, w = 1, span // a span shorter than one window is its own window
	}
	counts := make([]float64, n)
	for _, t := range times {
		if i := int(t / w); t >= 0 && i < n {
			counts[i] += weight
		}
	}
	for i := range counts {
		counts[i] /= w
	}
	return counts
}

// windowedQuantile splits timed samples (at, in seconds since the phase
// start) into windows of width w over [0, span), takes the p-quantile of
// each non-empty window, and returns the median of those. A latency
// percentile read this way is the percentile of a typical window: one
// stall of the host spoils one or two windows, not the number.
func windowedQuantile(at, v []float64, span, w, p float64) float64 {
	n := int(span / w)
	if n < 1 {
		n = 1
	}
	buckets := make([][]float64, n)
	for i, t := range at {
		if b := int(t / w); t >= 0 && b < n {
			buckets[b] = append(buckets[b], v[i])
		}
	}
	var qs []float64
	for _, b := range buckets {
		if len(b) > 0 {
			sort.Float64s(b)
			qs = append(qs, quantile(b, p))
		}
	}
	return median(qs)
}

// peakRSSMB reads VmHWM, the process's peak resident set, from
// /proc/self/status. Each workload runs in its own process, so the peak
// belongs to that workload alone.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("benchmark: parsing VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("benchmark: no VmHWM line in /proc/self/status")
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown" off Linux.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// memDelta is the change in the Go runtime's allocation and GC counters
// across a section. The counters are process-wide: they include the load
// generator and the benchmark's own bookkeeping, not only the layer
// under test.
type memDelta struct {
	mallocs, bytes float64
	gcCycles       float64
	gcPauseMs      float64
}

type memMark struct{ s runtime.MemStats }

func markMem() *memMark {
	m := &memMark{}
	runtime.ReadMemStats(&m.s)
	return m
}

func (m *memMark) since() memDelta {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return memDelta{
		mallocs:   float64(now.Mallocs - m.s.Mallocs),
		bytes:     float64(now.TotalAlloc - m.s.TotalAlloc),
		gcCycles:  float64(now.NumGC - m.s.NumGC),
		gcPauseMs: float64(now.PauseTotalNs-m.s.PauseTotalNs) / 1e6,
	}
}

// perOp times fn, which performs ops operations, and returns
// nanoseconds per operation. Isolation replays call it with enough
// operations that the timer's own cost vanishes.
func perOp(ops int, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// bestOf runs a replay several times and keeps the fastest: a replay
// measures what the layer costs when nothing else interferes, and
// interference only ever adds time.
func bestOf(reps int, replay func() float64) float64 {
	best := math.Inf(1)
	for i := 0; i < reps; i++ {
		if v := replay(); v < best {
			best = v
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
