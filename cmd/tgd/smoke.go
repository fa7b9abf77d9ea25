package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tailguard/internal/fault"
	"tailguard/internal/tgd"
)

// smokeQueries is the enqueue count for -smoke; small enough to finish in
// a couple of seconds, large enough that a lost task would be visible.
const smokeQueries = 60

// runSmoke is the end-to-end durability proof behind tgd -smoke (run in
// tier-1 by TestRunSmoke):
//
//  1. start a daemon over a journal file in a temp dir,
//  2. enqueue smokeQueries deadline-stamped queries (fanout 2),
//  3. drain with three workers — one of which "crashes" mid-lease by
//     blocking forever on its first claim, forfeiting the task to the
//     expiry repair loop,
//  4. kill the daemon with work still queued and restart it from the
//     journal,
//  5. finish draining and assert every query completed exactly once.
//
// Everything runs in-process (ephemeral client mux, no sockets) so the
// proof is hermetic; it exits non-zero on any lost or double-counted
// task.
func runSmoke(cfg runConfig, out *os.File) error {
	dir, err := os.MkdirTemp("", "tgd-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "tgd.wal")

	dcfg := cfg
	dcfg.journal = journal
	dcfg.leaseMs = 50 // short leases so the crashed worker's task repairs fast
	dcfg.repairMs = 5

	// Phase 1: first daemon incarnation.
	d, err := buildDaemon(dcfg)
	if err != nil {
		return err
	}
	d.Start()
	client := tgd.NewInProcessClient(d)
	ctx := context.Background()

	rng := rand.New(rand.NewSource(cfg.seed))
	nowMs := func() float64 { return float64(time.Now().UnixNano()) / 1e6 }
	for i := 0; i < smokeQueries; i++ {
		_, err := client.Enqueue(ctx, tgd.EnqueueRequest{
			Fanout:     2,
			DeadlineMs: nowMs() + 50 + 200*rng.Float64(),
		})
		if err != nil {
			return fmt.Errorf("smoke enqueue %d: %w", i, err)
		}
	}
	fmt.Fprintf(out, "tgd-smoke: enqueued %d queries (fanout 2) into %s\n", smokeQueries, journal)

	// A "crashing" worker: claims one task, then blocks until cancelled,
	// never completing — the lease must expire and repair must requeue it.
	crashCtx, crashCancel := context.WithCancel(ctx)
	defer crashCancel()
	var crashWG sync.WaitGroup
	crashWG.Add(1)
	claimed := make(chan struct{})
	go func() {
		defer crashWG.Done()
		w := tgd.Worker{Client: client, Name: "smoke-crasher", WaitMs: 100, Exec: func(ctx context.Context, _ *tgd.Lease) error {
			close(claimed)
			<-ctx.Done()
			return ctx.Err()
		}}
		w.Run(crashCtx)
	}()
	select {
	case <-claimed:
	case <-time.After(5 * time.Second):
		crashCancel()
		return errors.New("smoke: crashing worker never claimed a task")
	}

	// Drain roughly half the work with healthy workers, then stop them so
	// the restart happens with real state in every lease phase.
	half := smokeQueries // tasks, not queries: 2*queries/2
	if err := drain(ctx, client, 2, half); err != nil {
		return err
	}
	st, err := client.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "tgd-smoke: pre-restart: done=%d failed=%d ready=%d leased=%d expired=%d\n",
		st.QueriesDone, st.QueriesFailed, st.Ready, st.Leased, st.Expired)
	if st.QueriesFailed != 0 {
		return fmt.Errorf("smoke: %d queries failed before restart", st.QueriesFailed)
	}

	// Phase 2: kill the daemon mid-flight (the crasher still holds a
	// lease) and restart from the journal.
	crashCancel()
	crashWG.Wait()
	if err := d.Close(); err != nil {
		return fmt.Errorf("smoke: closing daemon: %w", err)
	}

	d2, err := buildDaemon(dcfg)
	if err != nil {
		return fmt.Errorf("smoke: restart from journal: %w", err)
	}
	defer d2.Close()
	d2.Start()
	client2 := tgd.NewInProcessClient(d2)
	st, err = client2.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "tgd-smoke: post-restart: recovered ready=%d done=%d\n", st.Ready, st.QueriesDone)

	// Phase 3: finish the drain on the new incarnation — workers now see
	// the repaired/recovered tasks, with fault injection dropping some
	// completes on the wire to exercise duplicate handling.
	eng, err := fault.NewEngine(&fault.Plan{
		Name: "tgd-smoke-drops",
		Seed: cfg.seed,
		Faults: []fault.Fault{{
			Kind: fault.TransportDrop, Server: fault.AllServers,
			StartMs: 0, EndMs: math.MaxFloat64, DropProb: 0.05,
		}},
	}, 1)
	if err != nil {
		return err
	}
	faulty := tgd.NewClient("http://tgd.inprocess", &tgd.FaultedTransport{
		Inner:  tgd.InProcessTransport(d2),
		Engine: eng,
		Node:   0,
		NowMs:  nowMs,
	})
	if err := drain(ctx, faulty, 3, 0); err != nil {
		return err
	}
	st, err = client2.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "tgd-smoke: final: done=%d failed=%d completed-tasks=%d duplicates=%d expired=%d missed=%d\n",
		st.QueriesDone, st.QueriesFailed, st.CompletedTasks, st.Duplicates, st.Expired, st.Missed)

	switch {
	case st.QueriesDone != smokeQueries:
		return fmt.Errorf("smoke FAIL: %d/%d queries done — tasks lost", st.QueriesDone, smokeQueries)
	case st.QueriesFailed != 0:
		return fmt.Errorf("smoke FAIL: %d queries failed", st.QueriesFailed)
	case st.CompletedTasks != 2*smokeQueries:
		return fmt.Errorf("smoke FAIL: %d completed tasks counted, want %d (exactly-once violated)",
			st.CompletedTasks, 2*smokeQueries)
	case st.Ready+st.Delayed+st.Leased != 0:
		return fmt.Errorf("smoke FAIL: %d tasks still queued", st.Ready+st.Delayed+st.Leased)
	}
	fmt.Fprintln(out, "tgd-smoke: PASS — zero lost, zero double-counted across crash and restart")
	return nil
}

// drain runs workers until limit tasks complete (limit 0 = until the
// daemon reports everything settled).
func drain(ctx context.Context, client *tgd.Client, workers, limit int) error {
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	var (
		mu   sync.Mutex
		done int
	)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := tgd.Worker{Client: client, Name: fmt.Sprintf("smoke-worker-%d", i), WaitMs: 20,
				Exec: func(context.Context, *tgd.Lease) error { return nil }}
			for dctx.Err() == nil {
				lease, err := w.Client.Claim(dctx, tgd.ClaimRequest{Worker: w.Name, WaitMs: w.WaitMs})
				if err != nil || lease == nil {
					if dctx.Err() != nil {
						return
					}
					if err != nil {
						sleep(dctx, time.Millisecond)
					}
					// Long-poll elapsed: check the stop conditions.
					mu.Lock()
					n := done
					mu.Unlock()
					if limit > 0 && n >= limit {
						return
					}
					if limit == 0 {
						st, serr := client.Stats(dctx)
						if serr == nil && st.Ready+st.Delayed+st.Leased == 0 {
							return
						}
					}
					continue
				}
				_, err = w.Client.Complete(dctx, tgd.CompleteRequest{
					QueryID: lease.QueryID, TaskIndex: lease.TaskIndex, LeaseID: lease.LeaseID, Worker: w.Name,
				})
				if err == nil || tgd.IsConflict(err) {
					mu.Lock()
					done++
					n := done
					mu.Unlock()
					if limit > 0 && n >= limit {
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if dctx.Err() != nil && ctx.Err() == nil {
		return errors.New("smoke: drain timed out")
	}
	return nil
}

// sleep pauses d or until ctx is done.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
