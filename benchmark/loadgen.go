package main

import (
	"math/rand"
	"sort"
	"syscall"
	"time"

	"tailguard/internal/workload"
)

// arrival is one scheduled query of an open-loop phase: when it is due
// (offset from the phase start) and what it asks for.
type arrival struct {
	due    time.Duration
	class  int
	fanout int
}

// poissonSchedule draws the arrivals of one open-loop phase from the
// seeded source: exponential gaps at the given rate (queries per
// second), class by weight, fanout from the mix. The same source gives
// the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, span time.Duration, classes *workload.ClassSet, fan workload.FanoutDist) []arrival {
	var out []arrival
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		due := time.Duration(at * float64(time.Second))
		if due >= span {
			return out
		}
		out = append(out, arrival{due: due, class: classes.Sample(rng), fanout: fan.Sample(rng)})
	}
}

// sendRec is what the generator saw of one query: when it was due, when
// the send actually started, when the send returned, and whether the
// system accepted it. Offsets are from the phase start.
type sendRec struct {
	due, sent, acked time.Duration
	err              error
}

// openLoop sends query i at its due time over the caller's one
// connection, or as soon after as the previous send lets it: a stall
// makes later sends late, it does not make them go away. Every latency
// downstream is taken from due, never from sent, so the wait a stall
// imposes on the queries behind it is counted (no coordinated omission).
func openLoop(start time.Time, sched []arrival, send func(i int) error) []sendRec {
	recs := make([]sendRec, len(sched))
	for i, a := range sched {
		sleepUntil(start.Add(a.due))
		sent := time.Since(start)
		err := send(i)
		recs[i] = sendRec{due: a.due, sent: sent, acked: time.Since(start), err: err}
	}
	return recs
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. The Go
// runtime's own timers wake an otherwise idle process through
// epoll_wait, whose timeout is in whole milliseconds: time.Sleep
// overshoots a sub-millisecond gap by about a millisecond here, which
// would be most of a query's latency. nanosleep overshoots by some tens
// of microseconds, and while the thread sleeps the runtime hands its P to
// another, so no core is spent spinning.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// lagP99Ms is how late the generator ran against its schedule: the 99th
// percentile of (actual send start - due time).
func lagP99Ms(recs []sendRec) float64 {
	if len(recs) == 0 {
		return 0
	}
	lag := make([]float64, len(recs))
	for i, r := range recs {
		lag[i] = ms(r.sent - r.due)
	}
	sort.Float64s(lag)
	return quantile(lag, 0.99)
}

// queryRec is the fate of one query for the latency summary: its due and
// completion times in seconds (done < 0 when it never completed), its
// class SLO, and whether the system accepted it.
type queryRec struct {
	dueS, doneS float64
	sloMs       float64
	accepted    bool
}

// latencySummary is the end-to-end view of one phase.
type latencySummary struct {
	sent, failed int       // failed: refused, errored or never completed
	dueS         []float64 // due time of each completed query
	latMs        []float64 // its latency, parallel to dueS
	attainment   float64   // share of sent queries done within their SLO
}

// percentile is the p-quantile of the phase's latencies, read per
// sub-window (see windowedQuantile). from is the phase's start on the
// clock dueS is on.
func (s latencySummary) percentile(p, from, span, window float64) float64 {
	at := make([]float64, len(s.dueS))
	for i, d := range s.dueS {
		at[i] = d - from
	}
	return windowedQuantile(at, s.latMs, span, window, p)
}

// summarize turns query fates into the phase's latency numbers. A query
// that was refused (429), failed (5xx, transport error) or timed out has
// no latency sample; it counts as failed and as an SLO miss.
func summarize(recs []queryRec) latencySummary {
	s := latencySummary{sent: len(recs)}
	within := 0
	for _, r := range recs {
		if !r.accepted || r.doneS < 0 {
			s.failed++
			continue
		}
		lat := (r.doneS - r.dueS) * 1e3
		s.dueS = append(s.dueS, r.dueS)
		s.latMs = append(s.latMs, lat)
		if lat <= r.sloMs {
			within++
		}
	}
	if s.sent > 0 {
		s.attainment = float64(within) / float64(s.sent)
	}
	return s
}
