// Command tgd runs TailGuard's networked scheduler daemon and its
// companion roles, so one binary exercises the whole loop:
//
//	tgd -addr :7070 -journal tgd.wal          # the scheduler daemon
//	tgd -work -daemon http://localhost:7070   # a worker (task server) pool
//	tgd -enqueue 100 -daemon http://localhost:7070 -fanout 4
//
// The daemon serves until interrupted. Producers POST deadline-stamped
// queries (or let the daemon's TF-EDFQ estimator stamp them: -workload
// xapian -slo-ms 50); workers claim by earliest deadline via long-poll
// leases and complete or NACK; the repair loop requeues leases whose
// holders die. With -journal, a restarted daemon recovers its queue;
// internal/tgd's durability and repair tests prove that no task is lost
// or counted twice across worker crashes and daemon restarts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"tailguard/internal/control"
	"tailguard/internal/core"
	"tailguard/internal/dist"
	"tailguard/internal/fault"
	"tailguard/internal/tgd"
	"tailguard/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "tgd:", err)
		os.Exit(1)
	}
}

// runConfig carries the parsed flags.
type runConfig struct {
	addr        string
	journal     string
	sync        bool
	leaseMs     float64
	repairMs    float64
	retryBudget int
	backoffMs   float64
	backoffCap  float64
	workloadStr string
	sloMs       float64

	control     bool
	ctlTickMs   float64
	targetRatio float64
	minCredits  int
	maxCredits  int

	work      bool
	daemonURL string
	workers   int
	serviceMs float64
	idleExit  time.Duration

	enqueue int
	fanout  int
	class   int
	seed    int64
}

// run dispatches the selected mode. ready, when non-nil, receives the
// daemon's bound address once it serves (tests use it to avoid ports and
// polling).
func run(args []string, out *os.File, ready chan<- string) error {
	fs := flag.NewFlagSet("tgd", flag.ContinueOnError)
	var cfg runConfig
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:7070", "daemon listen address")
	fs.StringVar(&cfg.journal, "journal", "", "write-ahead journal file (empty = in-memory, queue lost on restart)")
	fs.BoolVar(&cfg.sync, "sync", false, "fsync the journal on every append")
	fs.Float64Var(&cfg.leaseMs, "lease-ms", 2000, "default lease duration")
	fs.Float64Var(&cfg.repairMs, "repair-ms", 100, "lease-expiry repair period")
	fs.IntVar(&cfg.retryBudget, "retry-budget", 3, "NACK retries allowed per query before it fails")
	fs.Float64Var(&cfg.backoffMs, "backoff-ms", 10, "base NACK retry backoff")
	fs.Float64Var(&cfg.backoffCap, "backoff-cap-ms", 1000, "NACK retry backoff cap")
	fs.StringVar(&cfg.workloadStr, "workload", "", "tailbench workload for the TF-EDFQ deadline estimator (empty = producers must stamp deadline_ms)")
	fs.Float64Var(&cfg.sloMs, "slo-ms", 50, "99th-percentile SLO for estimator-stamped deadlines")
	fs.BoolVar(&cfg.control, "control", false, "attach the adaptive control plane: credit-gated enqueues (429 past the limit) and a live AIMD loop on the daemon's miss ratio")
	fs.Float64Var(&cfg.ctlTickMs, "control-tick-ms", 100, "control loop period (-control)")
	fs.Float64Var(&cfg.targetRatio, "target-ratio", 0.05, "deadline-miss ratio the control loop holds (-control)")
	fs.IntVar(&cfg.minCredits, "min-credits", 16, "credit limit floor (-control)")
	fs.IntVar(&cfg.maxCredits, "max-credits", 1024, "credit limit ceiling and start (-control)")
	fs.BoolVar(&cfg.work, "work", false, "run a worker pool instead of the daemon")
	fs.StringVar(&cfg.daemonURL, "daemon", "http://127.0.0.1:7070", "daemon base URL (worker/producer modes)")
	fs.IntVar(&cfg.workers, "workers", 4, "worker goroutines (-work)")
	fs.Float64Var(&cfg.serviceMs, "service-ms", 1, "simulated task service time (-work)")
	fs.DurationVar(&cfg.idleExit, "idle-exit", 0, "exit worker pool after this long with no work (0 = run until interrupted)")
	fs.IntVar(&cfg.enqueue, "enqueue", 0, "enqueue this many queries and exit")
	fs.IntVar(&cfg.fanout, "fanout", 1, "tasks per enqueued query")
	fs.IntVar(&cfg.class, "class", 0, "service class of enqueued queries")
	fs.Int64Var(&cfg.seed, "seed", 1, "RNG seed (producer jitter)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case cfg.work:
		return runWorkers(cfg, out)
	case cfg.enqueue > 0:
		return runProducer(cfg, out)
	default:
		return runDaemon(cfg, out, ready)
	}
}

// buildDaemon assembles a tgd.Daemon from the flags.
func buildDaemon(cfg runConfig) (*tgd.Daemon, error) {
	var store tgd.Store
	if cfg.journal != "" {
		fs, err := tgd.OpenFileStore(cfg.journal, cfg.sync)
		if err != nil {
			return nil, err
		}
		store = fs
	}
	var deadliner *core.Deadliner
	if cfg.workloadStr != "" {
		w, err := dist.TailbenchWorkload(cfg.workloadStr)
		if err != nil {
			return nil, err
		}
		classes, err := workload.SingleClass(cfg.sloMs)
		if err != nil {
			return nil, err
		}
		est, err := core.NewHomogeneousStaticTailEstimator(w.ServiceTime, 1)
		if err != nil {
			return nil, err
		}
		deadliner, err = core.NewDeadliner(core.TFEDFQ, est, classes)
		if err != nil {
			return nil, err
		}
	}
	var ctl *control.Controller
	if cfg.control {
		var err error
		ctl, err = control.New(control.Config{
			TickMs:      cfg.ctlTickMs,
			TargetRatio: cfg.targetRatio,
			MinCredits:  cfg.minCredits,
			MaxCredits:  cfg.maxCredits,
		})
		if err != nil {
			return nil, err
		}
		gate, err := workload.NewCreditGate(ctl.Credits())
		if err != nil {
			return nil, err
		}
		ctl.AttachGate(gate)
	}
	return tgd.New(tgd.Config{
		Store:          store,
		Deadliner:      deadliner,
		Resilience:     fault.Resilience{RetryBudget: cfg.retryBudget},
		DefaultLeaseMs: cfg.leaseMs,
		BackoffBaseMs:  cfg.backoffMs,
		BackoffCapMs:   cfg.backoffCap,
		RepairEvery:    time.Duration(cfg.repairMs * float64(time.Millisecond)),
		Control:        ctl,
	})
}

// runDaemon serves until interrupted.
func runDaemon(cfg runConfig, out *os.File, ready chan<- string) error {
	d, err := buildDaemon(cfg)
	if err != nil {
		return err
	}
	defer d.Close()
	d.Start()
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: d.Mux()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(out, "tgd: serving on http://%s (journal=%q lease=%.0fms retry-budget=%d)\n",
		ln.Addr(), cfg.journal, cfg.leaseMs, cfg.retryBudget)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	if ready != nil {
		ready <- ln.Addr().String()
	}
	select {
	case <-sig:
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// runWorkers drives a worker pool against a live daemon.
func runWorkers(cfg runConfig, out *os.File) error {
	if cfg.workers < 1 {
		return fmt.Errorf("need >= 1 worker, got %d", cfg.workers)
	}
	client := tgd.NewClient(cfg.daemonURL, nil)
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	exec := func(ctx context.Context, _ *tgd.Lease) error {
		t := time.NewTimer(time.Duration(cfg.serviceMs * float64(time.Millisecond)))
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}
	var (
		mu       sync.Mutex
		lastWork = time.Now()
	)
	if cfg.idleExit > 0 {
		go func() {
			for ctx.Err() == nil {
				time.Sleep(cfg.idleExit / 4)
				mu.Lock()
				idle := time.Since(lastWork)
				mu.Unlock()
				if idle > cfg.idleExit {
					cancel()
					return
				}
			}
		}()
	}
	var wg sync.WaitGroup
	stats := make([]tgd.WorkerStats, cfg.workers)
	for i := 0; i < cfg.workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := tgd.Worker{
				Client: client,
				Name:   fmt.Sprintf("tgd-worker-%d", i),
				WaitMs: 1000,
				Exec: func(ctx context.Context, l *tgd.Lease) error {
					mu.Lock()
					lastWork = time.Now()
					mu.Unlock()
					return exec(ctx, l)
				},
			}
			stats[i] = w.Run(ctx)
		}(i)
	}
	wg.Wait()
	var total tgd.WorkerStats
	for _, s := range stats {
		total.Claims += s.Claims
		total.Completed += s.Completed
		total.Nacked += s.Nacked
		total.Conflicts += s.Conflicts
		total.Dropped += s.Dropped
		total.Errors += s.Errors
	}
	fmt.Fprintf(out, "tgd: workers done: claims=%d completed=%d nacked=%d conflicts=%d errors=%d\n",
		total.Claims, total.Completed, total.Nacked, total.Conflicts, total.Errors)
	return nil
}

// runProducer enqueues cfg.enqueue queries and prints the daemon stats.
func runProducer(cfg runConfig, out *os.File) error {
	if cfg.fanout < 1 {
		return fmt.Errorf("fanout %d < 1", cfg.fanout)
	}
	client := tgd.NewClient(cfg.daemonURL, nil)
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < cfg.enqueue; i++ {
		req := tgd.EnqueueRequest{Class: cfg.class, Fanout: cfg.fanout}
		// Without a daemon-side estimator, stamp a deadline ourselves:
		// SLO ms from now with a little seeded jitter so the EDF order
		// is visibly non-FIFO.
		resp, err := client.Enqueue(ctx, req)
		if err != nil {
			var se *tgd.StatusError
			if errors.As(err, &se) && se.Code == http.StatusBadRequest {
				now := float64(time.Now().UnixNano()) / 1e6
				req.DeadlineMs = now + cfg.sloMs*(0.5+rng.Float64())
				resp, err = client.Enqueue(ctx, req)
			}
			if err != nil {
				return fmt.Errorf("enqueue %d: %w", i, err)
			}
		}
		if i == 0 {
			fmt.Fprintf(out, "tgd: first query id=%d deadline=%.1fms budget=%.1fms\n",
				resp.QueryID, resp.DeadlineMs, resp.BudgetMs)
		}
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "tgd: enqueued %d queries (%d tasks); daemon now: ready=%d leased=%d done=%d\n",
		cfg.enqueue, cfg.enqueue*cfg.fanout, stats.Ready, stats.Leased, stats.QueriesDone)
	return nil
}
