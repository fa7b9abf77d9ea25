// Command tgsim regenerates the paper's simulation tables and figures.
//
// Usage:
//
//	tgsim -exp table2                 # reproduce Table II
//	tgsim -exp fig4 -fidelity full    # Fig. 4 at publication fidelity
//	tgsim -exp all -fidelity quick    # everything, CI-sized
//
// Experiments: fig3, table2, fig4, table3, fig5, fig6, fig7, nscale,
// request, ablation, shardscale, all. Output is an aligned plain-text
// table per experiment (the same rows/series the paper plots).
//
// `-exp shardscale` compares the sequential engine against the sharded
// parallel core (`-shards` picks the shard counts, `-shard-servers` the
// cluster size, default 10000); every sharded run is gated on
// bit-identity with the sequential result and any divergence is a fatal
// error (experiment.TestShardScaleEquivalenceGate runs the same gate in
// go test).
//
// Sweeps run on a worker pool sized by -parallel (default: all cores);
// results are bit-identical at every setting, including -parallel 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tailguard/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tgsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tgsim", flag.ContinueOnError)
	exp := fs.String("exp", "table2", "experiment: fig3|table2|fig4|table3|fig5|fig6|fig7|nscale|request|flashcrowd|ablation|all")
	fidelity := fs.String("fidelity", "quick", "fidelity: quick|full")
	seed := fs.Int64("seed", 1, "base RNG seed")
	queries := fs.Int("queries", 0, "override queries per probe (0 = fidelity default)")
	workloads := fs.String("workloads", "", "comma-separated workload subset (default: all three)")
	svgDir := fs.String("svg", "", "also render figures as SVG files into this directory")
	csvDir := fs.String("csv", "", "also write each table as CSV into this directory")
	replicates := fs.Int("replicates", 1, "for -exp fig4: independent max-load searches per point (mean±sd)")
	obsDir := fs.String("obs", "", "run the instrumented diagnostic sweep instead of -exp: write trace_<policy>_s<seed>.json (Chrome trace) and metrics_<policy>_s<seed>.prom into this directory and print the miss-cause breakdown")
	obsLoad := fs.Float64("obs-load", 0.6, "with -obs: offered load for the instrumented sweep")
	faults := fs.String("faults", "", "run the fault-injection resilience sweep instead of -exp: 'canonical' for the built-in fault classes, or a path to a fault plan JSON")
	faultOut := fs.String("fault-out", "", "with -faults: write the rendered tables into this directory, named with the plan hash and seed")
	faultLoad := fs.Float64("fault-load", 0.30, "with -faults: offered load for the fault sweep")
	par := fs.Int("parallel", 0, "worker pool size for experiment sweeps (0 = all cores, 1 = sequential); results are identical at any value")
	control := fs.Bool("control", false, "with -exp flashcrowd: also run the adaptive-control-plane variants next to the uncontrolled baselines")
	shards := fs.String("shards", "2,4,8", "with -exp shardscale: comma-separated shard counts to compare against the sequential engine")
	shardServers := fs.Int("shard-servers", 0, "with -exp shardscale: cluster size (0 = the stock 10000-server scenario)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *par < 0 {
		return fmt.Errorf("-parallel must be >= 0, got %d", *par)
	}
	for _, dir := range []string{*svgDir, *csvDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return fmt.Errorf("creating output dir: %w", err)
			}
		}
	}

	var fid experiment.Fidelity
	switch *fidelity {
	case "quick":
		fid = experiment.Quick
	case "full":
		fid = experiment.Full
	default:
		return fmt.Errorf("unknown fidelity %q (want quick or full)", *fidelity)
	}
	fid.Seed = *seed
	fid.Workers = *par
	if *queries > 0 {
		fid.Queries = *queries
		if fid.Warmup >= fid.Queries {
			fid.Warmup = fid.Queries / 10
		}
	}
	var wl []string
	if *workloads != "" {
		wl = strings.Split(*workloads, ",")
	}

	if *obsDir != "" {
		return runObs(*obsDir, *obsLoad, wl, fid)
	}
	if *faults != "" {
		return runFaults(*faults, *faultOut, *faultLoad, wl, fid)
	}

	runners := map[string]func() ([]*experiment.Table, error){
		"fig3":   func() ([]*experiment.Table, error) { return one(experiment.Fig3()) },
		"table2": func() ([]*experiment.Table, error) { return one(experiment.Table2()) },
		"fig4": func() ([]*experiment.Table, error) {
			if *replicates > 1 {
				return one(experiment.Fig4Replicated(fid, wl, nil, *replicates))
			}
			return one(experiment.Fig4(fid, wl, nil))
		},
		"table3": func() ([]*experiment.Table, error) { return one(experiment.Table3(fid, nil)) },
		"fig5":   func() ([]*experiment.Table, error) { return one(experiment.Fig5(fid, nil, nil)) },
		"fig6":   func() ([]*experiment.Table, error) { return one(experiment.Fig6(fid, wl, nil)) },
		"fig7":   func() ([]*experiment.Table, error) { return one(experiment.Fig7(fid, nil)) },
		"nscale": func() ([]*experiment.Table, error) { return one(experiment.NScale(fid, 1.0)) },
		"request": func() ([]*experiment.Table, error) {
			return one(experiment.RequestExperiment(fid, 3.0))
		},
		"failure": func() ([]*experiment.Table, error) {
			return one(experiment.ExtFailure(fid, 0.40))
		},
		"surge": func() ([]*experiment.Table, error) {
			return one(experiment.ExtSurge(fid, 0.40, 0.5))
		},
		"flashcrowd": func() ([]*experiment.Table, error) {
			variants := []string{experiment.Uncontrolled}
			if *control {
				variants = append(variants, experiment.Controlled)
			}
			runs, err := experiment.ControlSweep(experiment.ControlConfig{
				Variants: variants,
				Fidelity: fid,
			})
			if err != nil {
				return nil, err
			}
			return []*experiment.Table{experiment.ControlTable(runs)}, nil
		},
		"shardscale": func() ([]*experiment.Table, error) {
			counts, err := parseShardCounts(*shards)
			if err != nil {
				return nil, err
			}
			// The experiment package is virtual-time; the wall clock for
			// the wall_s/speedup columns is injected from here.
			start := time.Now()
			wall := func() float64 { return time.Since(start).Seconds() }
			return one(experiment.ShardScale(fid, *shardServers, counts, wall))
		},
		"ablation": func() ([]*experiment.Table, error) {
			var tables []*experiment.Table
			q, err := experiment.AblationQueues(fid, 0.30)
			if err != nil {
				return nil, err
			}
			tables = append(tables, q)
			h, err := experiment.AblationHeterogeneity(fid, 0.30)
			if err != nil {
				return nil, err
			}
			tables = append(tables, h)
			a, err := experiment.AblationAdmissionWindow(fid, 0.65, nil)
			if err != nil {
				return nil, err
			}
			tables = append(tables, a)
			d, err := experiment.AblationDispatch(fid, 0.30, 0.05)
			if err != nil {
				return nil, err
			}
			return append(tables, d), nil
		},
	}

	order := []string{"fig3", "table2", "fig4", "table3", "fig5", "fig6", "fig7", "nscale", "request", "failure", "surge", "flashcrowd", "ablation", "shardscale"}
	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		if _, ok := runners[*exp]; !ok {
			return fmt.Errorf("unknown experiment %q (want one of %s, all)", *exp, strings.Join(order, ", "))
		}
		selected = []string{*exp}
	}

	for _, name := range selected {
		start := time.Now()
		tables, err := runners[name]()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, t := range tables {
			fmt.Println(t.String())
			if *csvDir != "" {
				path := filepath.Join(*csvDir, t.ID+".csv")
				if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
					return fmt.Errorf("writing %s: %w", path, err)
				}
				fmt.Printf("wrote %s\n", path)
			}
			if *svgDir != "" {
				figs, err := experiment.Render(t)
				if err != nil {
					return fmt.Errorf("%s: rendering: %w", name, err)
				}
				for _, fig := range figs {
					path := filepath.Join(*svgDir, fig.Name+".svg")
					if err := os.WriteFile(path, []byte(fig.SVG), 0o644); err != nil {
						return fmt.Errorf("writing %s: %w", path, err)
					}
					fmt.Printf("wrote %s\n", path)
				}
			}
		}
		fmt.Printf("(%s completed in %.1fs)\n\n", name, time.Since(start).Seconds())
	}
	return nil
}

// one adapts a single-table runner to the []*Table shape.
func one(t *experiment.Table, err error) ([]*experiment.Table, error) {
	if err != nil {
		return nil, err
	}
	return []*experiment.Table{t}, nil
}

// parseShardCounts parses the -shards flag ("2,4,8") into shard counts.
func parseShardCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 2 {
			return nil, fmt.Errorf("-shards wants comma-separated counts >= 2, got %q", part)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("-shards needs at least one shard count")
	}
	return counts, nil
}
