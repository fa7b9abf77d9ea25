package main

// The benchmark's vocabulary: workloads and metrics. BENCHMARK.json at
// the repository root states the same lists for the driver; main_test.go
// holds the two equal.

type workloadSpec struct {
	name string
	why  string
	run  func(*env) (*outcome, error)
}

var workloads = []workloadSpec{
	{"sim-steady", "back-to-back cluster.Run chunks at load 0.40: steady per-task cost of cluster+sim+policy+dist+metrics, set-up negligible", runSimSteady},
	{"sim-sweep", "Fig4Replicated max-load sweeps: ~220 short probes each, so per-probe set-up and the parallel harness weigh in; yields the paper's headline", runSimSweep},
	{"tgd-open", "tgd on MemStore over loopback, open-loop Poisson at the reference rate then saturation: HTTP, JSON, allocation and the table lock do all the work", func(e *env) (*outcome, error) { return runTgd(e, tgdOpen) }},
	{"tgd-durable", "same daemon and rates on a FileStore journal with 5% of leases NACKed once: adds the write path, retry/backoff heaps and restart replay that tgd-open bypasses", func(e *env) (*outcome, error) { return runTgd(e, tgdDurable) }},
	{"sched-closed", "in-process sched.Do from nproc closed-loop callers: the third live substrate, touching neither the event engine nor the wire", runSchedClosed},
}

type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of these from its untraced run. A bound is one number for all
// workloads, so the least steady ones set it: the tgd workloads' throughput and
// median latency wander 5 to 18 % between runs on a shared 2-vCPU box.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"tasks_per_s", "tasks/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"slo_attainment", "ratio", "higher", 0.01},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer comes from the traced run. A metric reads 0 on a workload
// that does not run its layer, and a speed-up reads 0 (withheld) at
// GOMAXPROCS=1.
var perLayer = []metricSpec{
	// Results of single workloads, which the uniform end-to-end list
	// cannot hold; the run's correctness checks gate them instead.
	{name: "query_p99_ms", unit: "ms", better: "lower"},
	{name: "fail_ratio", unit: "ratio", better: "lower"},
	{name: "recovery_s", unit: "s", better: "lower"},
	{name: "sweep_wall_s", unit: "s", better: "lower"},
	{name: "maxload_tfedfq", unit: "load", better: "higher"},
	{name: "maxload_gain_vs_fifo", unit: "ratio", better: "higher"},
	{name: "sim_p99_over_slo", unit: "ratio", better: "lower"},

	{name: "workload.gen_ns_per_query", unit: "ns", better: "lower"},
	{name: "dist.sample_ns_per_task", unit: "ns", better: "lower"},
	{name: "core.budget_hit_ns", unit: "ns", better: "lower"},
	{name: "core.budget_cold_us", unit: "us", better: "lower"},
	{name: "core.estimator_build_ms", unit: "ms", better: "lower"},
	{name: "core.admission_ns_per_task", unit: "ns", better: "lower"},
	{name: "policy.edf_ns_per_op_d8", unit: "ns", better: "lower"},
	{name: "policy.edf_ns_per_op_d512", unit: "ns", better: "lower"},
	{name: "sim.wheel_event_ns", unit: "ns", better: "lower"},
	{name: "sim.heap_event_ns", unit: "ns", better: "lower"},
	{name: "metrics.observe_ns", unit: "ns", better: "lower"},
	{name: "metrics.quantile_ms", unit: "ms", better: "lower"},
	{name: "cluster.ns_per_task", unit: "ns", better: "lower"},
	{name: "cluster.self_ns_per_task", unit: "ns", better: "lower"},
	{name: "cluster.allocs_per_task", unit: "count", better: "lower"},
	{name: "cluster.bytes_per_task", unit: "B", better: "lower"},
	{name: "cluster.sharded_speedup", unit: "ratio", better: "higher"},
	{name: "cluster.sharded_equal", unit: "bool", better: "higher"},
	{name: "experiment.probes", unit: "count", better: "lower"},
	{name: "experiment.probe_ms_p50", unit: "ms", better: "lower"},
	{name: "experiment.setup_share", unit: "ratio", better: "lower"},
	{name: "parallel.speedup", unit: "ratio", better: "higher"},
	{name: "parallel.workers", unit: "count", better: "higher"},

	{name: "tgd.wire_encode_ns", unit: "ns", better: "lower"},
	{name: "tgd.wire_decode_ns", unit: "ns", better: "lower"},
	{name: "tgd.store_mem_append_ns", unit: "ns", better: "lower"},
	{name: "tgd.store_file_append_us", unit: "us", better: "lower"},
	{name: "tgd.store_fsync_append_us", unit: "us", better: "lower"},
	{name: "tgd.journal_bytes_per_task", unit: "B", better: "lower"},
	{name: "tgd.replay_us_per_record", unit: "us", better: "lower"},
	{name: "tgd.inproc_enqueue_us", unit: "us", better: "lower"},
	{name: "tgd.inproc_claim_us", unit: "us", better: "lower"},
	{name: "tgd.inproc_complete_us", unit: "us", better: "lower"},
	{name: "tgd.sock_enqueue_us", unit: "us", better: "lower"},
	{name: "tgd.sock_claim_us", unit: "us", better: "lower"},
	{name: "tgd.sock_complete_us", unit: "us", better: "lower"},
	{name: "tgd.socket_us_per_rt", unit: "us", better: "lower"},
	{name: "tgd.handler_self_us", unit: "us", better: "lower"},
	{name: "tgd.claim_wait_ms_p50", unit: "ms", better: "lower"},
	{name: "tgd.claim_wait_ms_p99", unit: "ms", better: "lower"},
	{name: "tgd.slack_at_claim_ms_p50", unit: "ms", better: "higher"},
	{name: "tgd.slack_at_claim_ms_p01", unit: "ms", better: "higher"},
	{name: "tgd.ready_depth_p99", unit: "count", better: "lower"},
	{name: "tgd.deadline_miss_ratio", unit: "ratio", better: "lower"},
	{name: "tgd.empty_claim_ratio", unit: "ratio", better: "lower"},
	{name: "tgd.retries_per_task", unit: "ratio", better: "lower"},
	{name: "tgd.expired", unit: "count", better: "lower"},
	{name: "tgd.duplicates", unit: "count", better: "lower"},
	{name: "tgd.conflicts", unit: "count", better: "lower"},
	{name: "tgd.allocs_per_task", unit: "count", better: "lower"},
	{name: "tgd.bytes_per_task", unit: "B", better: "lower"},

	{name: "sched.budget_ns", unit: "ns", better: "lower"},
	{name: "sched.allocs_per_do", unit: "count", better: "lower"},

	{name: "loadgen.sent", unit: "count", better: "higher"},
	{name: "loadgen.ok", unit: "count", better: "higher"},
	{name: "loadgen.failed", unit: "count", better: "lower"},
	{name: "loadgen.lag_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.max_rate_step_qps", unit: "1/s", better: "higher"},

	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
