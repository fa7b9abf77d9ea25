package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tailguard/internal/dist"
	"tailguard/internal/sched"
	"tailguard/internal/workload"
)

const (
	schedServers      = 8
	schedTasksPerCall = 4
	schedSLOMs        = 100.0
)

func schedSetup(e *env) (*sched.Scheduler, error) {
	classes, err := workload.SingleClass(schedSLOMs)
	if err != nil {
		return nil, err
	}
	offline, err := dist.NewExponential(0.01)
	if err != nil {
		return nil, err
	}
	s, err := sched.New(sched.Config{Servers: schedServers, Classes: classes, Offline: offline})
	if err != nil {
		return nil, err
	}
	// Warm-up calls: server loops running, pools filled.
	tasks := noopTasks(0)
	for range e.size(2000, 100) {
		if _, err := s.Do(context.Background(), 0, tasks); err != nil {
			s.Close()
			return nil, fmt.Errorf("benchmark: warm-up Do: %w", err)
		}
	}
	return s, nil
}

// noopTasks is one caller's query: four tasks that do nothing, spread
// over the servers so two callers do not always collide.
func noopTasks(caller int) []sched.Task {
	noop := func(context.Context) error { return nil }
	tasks := make([]sched.Task, schedTasksPerCall)
	for j := range tasks {
		tasks[j] = sched.Task{Server: (caller*schedTasksPerCall + j) % schedServers, Run: noop}
	}
	return tasks
}

// schedSession is one closed-loop stretch: every caller issues its next
// Do only when the previous one has returned.
type schedSession struct {
	latMs  []float64 // every successful Do
	doneAt []float64 // when it returned, seconds since the start; parallel to latMs
	rate   float64   // tasks per second, median over sub-windows
	calls  int64
	failed int64
}

func schedCallers(e *env, s *sched.Scheduler, traced bool, seconds float64) schedSession {
	type callerLog struct {
		latMs  []float64
		doneAt []float64 // seconds since start
		failed int64
	}
	logs := make([]callerLog, e.nproc)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := range logs {
		var l *lane
		if traced {
			l = e.tr.lane(fmt.Sprintf("caller%d", c))
			l.reserve()
		}
		// Full-size logs from the start: see tgdEnv.measure.
		maxCalls := int(seconds*100_000) + 1024
		logs[c].latMs = make([]float64, 0, maxCalls)
		logs[c].doneAt = make([]float64, 0, maxCalls)
		wg.Add(1)
		go func() {
			defer wg.Done()
			lg := &logs[c]
			tasks := noopTasks(c)
			ctx := context.Background()
			for i := int64(0); ; i++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				_, err := s.Do(ctx, 0, tasks)
				t1 := time.Now()
				l.add("sched.Do", t0, t1, -1, i)
				if err != nil {
					lg.failed++
					continue
				}
				lg.latMs = append(lg.latMs, ms(t1.Sub(t0)))
				lg.doneAt = append(lg.doneAt, t1.Sub(start).Seconds())
			}
		}()
	}
	wg.Wait()
	var out schedSession
	for _, lg := range logs {
		out.latMs = append(out.latMs, lg.latMs...)
		out.doneAt = append(out.doneAt, lg.doneAt...)
		out.failed += lg.failed
	}
	out.calls = int64(len(out.latMs)) + out.failed
	out.rate = median(windowRates(out.doneAt, seconds, e.window(), schedTasksPerCall))
	return out
}

func runSchedClosed(e *env) (*outcome, error) {
	o := newOutcome()
	var s *sched.Scheduler
	err := e.setup(o, func() (err error) { s, err = schedSetup(e); return err }, func() error { s.Close(); return nil })
	if err != nil {
		return nil, err
	}
	defer s.Close()
	mem := markMem()

	var ses schedSession
	if e.trace {
		untraced := schedCallers(e, s, false, 0.4*e.seconds)
		ses = schedCallers(e, s, true, 0.6*e.seconds)
		o.attempted, o.failed = untraced.calls, untraced.failed
		o.set("bench.trace_overhead_frac", (untraced.rate-ses.rate)/untraced.rate)
	} else {
		ses = schedCallers(e, s, false, e.seconds)
	}
	d := mem.since()
	o.attempted += ses.calls
	o.failed += ses.failed
	o.setGC(d)
	// Process-wide, so it counts the callers' own latency logs too.
	o.set("sched.allocs_per_do", d.mallocs/float64(o.attempted))
	if o.failed > 0 {
		o.problem("sched-closed: %d of %d Do calls returned an error", o.failed, o.attempted)
	}
	if len(ses.latMs) == 0 {
		return nil, fmt.Errorf("benchmark: no Do call succeeded")
	}

	within := 0
	for _, v := range ses.latMs {
		if v <= schedSLOMs {
			within++
		}
	}
	span := e.seconds
	if e.trace {
		span = 0.6 * e.seconds
	}
	o.set("tasks_per_s", ses.rate)
	o.set("query_p50_ms", windowedQuantile(ses.doneAt, ses.latMs, span, e.window(), 0.5))
	o.set("query_p99_ms", quantile(sortedCopy(ses.latMs), 0.99))
	o.set("slo_attainment", float64(within)/float64(ses.calls))
	o.notef("%d callers, %d Do calls (%d beyond p99); p50 is the median over %.2g s windows", e.nproc, len(ses.latMs), len(ses.latMs)/100, e.window())

	if e.trace {
		servers := []int{0, 1, 2, 3}
		ops := e.size(5_000, 50)
		var bErr error
		e.tr.lane("replay").timed("replay sched.Budget", -1, -1, func() {
			o.set("sched.budget_ns", bestOf(replayReps, func() float64 {
				return perOp(ops, func() {
					for range ops {
						if _, err := s.Budget(0, servers); err != nil {
							bErr = err
							return
						}
					}
				})
			}))
		})
		if bErr != nil {
			return nil, bErr
		}
	}
	return o, nil
}
