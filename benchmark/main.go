// Command benchmark is the repository's end-to-end benchmark: five named
// workloads over the simulator, the tgd daemon and the in-process
// scheduler, each measured from outside through public functions.
//
//	go run ./benchmark -workload tgd-open -seed 1            # one workload, end-to-end metrics
//	go run ./benchmark -workload tgd-open -seed 1 -trace 1   # its traced run: per-layer metrics
//	go run ./benchmark -seed 1 > a.jsonl                     # every workload, one process each
//	go run ./benchmark -compare a.jsonl b.jsonl              # two sets of runs against the bounds
//
// A run prints two JSON lines on standard output: a header (host, seed,
// sizes, notes) and, last, the result object the driver reads. Tables
// for people go to standard error. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// env is what a workload is given: the seed its inputs derive from, how
// long to measure, and whether this is the traced run.
type env struct {
	seed       int64
	seconds    float64
	trace      bool
	tiny       bool
	tr         *tracer // nil unless trace
	outDir     string  // journals and trace files; git-ignored
	nproc      int
	gomaxprocs int
}

// size picks a workload dimension by scale.
func (e *env) size(full, tiny int) int {
	if e.tiny {
		return tiny
	}
	return full
}

func (e *env) scale() string {
	if e.tiny {
		return "tiny"
	}
	return "full"
}

// window is the sub-window width, in seconds, that saturation
// throughput is the median over.
func (e *env) window() float64 {
	if e.tiny {
		return 0.05
	}
	return 1
}

// setup runs build several times, tearing the previous product down
// before each rebuild, and records the median build time as setup_s. The
// last product is the one the workload measures.
func (e *env) setup(o *outcome, build func() error, teardown func() error) error {
	var times []float64
	for i := range e.size(5, 2) {
		if i > 0 && teardown != nil {
			if err := teardown(); err != nil {
				return fmt.Errorf("benchmark: tearing down set-up %d: %w", i-1, err)
			}
		}
		start := time.Now()
		if err := build(); err != nil {
			return fmt.Errorf("benchmark: set-up %d: %w", i, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	o.set("setup_s", median(times))
	return nil
}

// outcome is what a workload hands back.
type outcome struct {
	attempted, failed int64
	problems          []string // correctness failures; any fails the run
	notes             []string
	m                 map[string]float64
}

func newOutcome() *outcome { return &outcome{m: make(map[string]float64)} }

func (o *outcome) set(name string, v float64) { o.m[name] = v }

// setGC records the collector's activity over the measured section.
func (o *outcome) setGC(d memDelta) {
	o.set("runtime.gc_cycles", d.gcCycles)
	o.set("runtime.gc_pause_ms", d.gcPauseMs)
}

func (o *outcome) problem(format string, a ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, a...))
}

func (o *outcome) notef(format string, a ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, a...))
}

// metricValue and result are the contract's output shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// header says where and how the numbers were taken.
type header struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	Scale      string   `json:"scale"`
	Nproc      int      `json:"nproc"`
	Gomaxprocs int      `json:"gomaxprocs"`
	Go         string   `json:"go"`
	CPU        string   `json:"cpu"`
	Commit     string   `json:"commit"`
	Notes      []string `json:"notes"`
}

type headerLine struct {
	Header header `json:"header"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown" // built outside a git checkout
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run; empty runs all five, one process each")
		seed     = flag.Int64("seed", 1, "seed every input is derived from")
		seconds  = flag.Float64("seconds", 0, "how long to measure (default: 15, or 0.4 at -scale tiny)")
		trace    = flag.Int("trace", 0, "1 repeats the workload traced and reports the per-layer metrics")
		scale    = flag.String("scale", "full", "full, or tiny for the test-sized workloads")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace != 0, *scale, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace bool, scale string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files, got %d", len(args))
		}
		return compareFiles(args[0], args[1], os.Stdout)
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if scale != "full" && scale != "tiny" {
		return fmt.Errorf("unknown -scale %q (full or tiny)", scale)
	}
	if workload == "" {
		return runAll(seed, seconds, trace, scale)
	}
	w := findWorkload(workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", workload)
	}
	e := &env{
		seed: seed, seconds: seconds, trace: trace, tiny: scale == "tiny",
		outDir: filepath.Join("benchmark", "out"),
		nproc:  runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0),
	}
	if e.seconds <= 0 {
		e.seconds = 15
		if e.tiny {
			e.seconds = 0.4
		}
	}
	res, hdr, err := runWorkload(e, w)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(headerLine{hdr}); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: outputs are not correct", w.name)
	}
	return nil
}

// runWorkload runs one workload in this process and shapes its outcome
// into the contract's result: the end-to-end metrics from an untraced
// run, the per-layer metrics from a traced one.
func runWorkload(e *env, w *workloadSpec) (result, header, error) {
	if e.trace {
		e.tr = newTracer()
	}
	o, err := w.run(e)
	if err != nil {
		return result{}, header{}, fmt.Errorf("%s: %w", w.name, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, header{}, err
	}
	o.set("peak_rss_mb", rss)
	if o.attempted < 1 {
		return result{}, header{}, fmt.Errorf("%s attempted nothing", w.name)
	}
	o.set("fail_ratio", float64(o.failed)/float64(o.attempted))

	hdr := header{
		Workload: w.name, Seed: e.seed, Seconds: e.seconds, Trace: e.trace, Scale: e.scale(),
		Nproc: e.nproc, Gomaxprocs: e.gomaxprocs, Go: runtime.Version(), CPU: cpuModel(), Commit: commit(),
		Notes: append(o.notes,
			"load is generated by this one process; producers + workers <= max(2, nproc) goroutines and connections",
			"tgd traffic crosses the host's loopback interface, not a link; journals sit under benchmark/out on whatever disk the sandbox has"),
	}
	if e.gomaxprocs == 1 {
		hdr.Notes = append(hdr.Notes, "GOMAXPROCS=1: parallel.speedup and cluster.sharded_speedup are withheld (0)")
	}

	specs := endToEnd
	if e.trace {
		specs = perLayer
		path := filepath.Join(e.outDir, w.name+".trace.json")
		if err := e.tr.write(path, os.Stderr); err != nil {
			return result{}, header{}, fmt.Errorf("writing %s: %w", path, err)
		}
	}
	res := result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricValue, len(specs))}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "# INCORRECT:", p)
	}
	for _, n := range hdr.Notes {
		fmt.Fprintln(os.Stderr, "#", n)
	}
	for _, s := range specs {
		v, ok := o.m[s.name]
		if !ok && !e.trace {
			return result{}, header{}, fmt.Errorf("%s did not report %s", w.name, s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, header{}, fmt.Errorf("%s reported %s = %v", w.name, s.name, v)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
		fmt.Fprintf(os.Stderr, "# %-30s %16.6g %s\n", s.name, v, s.unit)
	}
	return res, hdr, nil
}

// runAll runs every workload in a child process of its own, so that
// peak_rss_mb and the GC counters belong to one workload each, passing
// their output through.
func runAll(seed int64, seconds float64, trace bool, scale string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var firstErr error
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-scale", scale}
		if trace {
			args = append(args, "-trace", "1")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return firstErr
}
