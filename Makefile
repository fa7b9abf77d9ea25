# TailGuard build and verification targets. `make ci` is exactly what the
# GitHub workflow runs; keep the two in sync.

GO ?= go
TGLINT := bin/tglint

.PHONY: all build lint vet fmt test race bench bench-smoke obs-smoke fault-smoke shard-smoke perf-smoke tgd-smoke control-smoke ci clean

# Benchmarks that feed BENCH_harness.json: the parallel-harness sweep pair,
# the sharded-core throughput pair, the scheduler-daemon wire cycle, and
# the fast-path micro-benchmarks (DeadlineEstimation also matches the
# RunParallel budget-lookup variant; EngineEvent is the wheel/heap pair
# at 41 and 4096 pending events).
BENCH_PATTERN := SweepFig4|SimulatorThroughput|ShardedClusterThroughput|SchedulerDo|OnlineCDFAdd|DeadlineEstimation|EngineEvent|TgdEnqueueClaim|ControlLoopOverhead

all: build

build:
	$(GO) build ./...

$(TGLINT): $(shell find tools/tglint -name '*.go' -not -path '*/testdata/*')
	$(GO) build -o $(TGLINT) ./tools/tglint

# lint runs the tglint analyzer suite over the whole module, tests
# included; any finding fails the target.
lint: $(TGLINT)
	./$(TGLINT) ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Every test at 1, 2 and 4 procs: a core-count-dependent failure (the
# nil-pool panic in internal/parallel only fired with >= 2) cannot hide
# behind a single GOMAXPROCS, or behind the test cache of another one.
test:
	$(GO) test -cpu 1,2,4 ./...

race:
	$(GO) test -race ./...

# bench runs the harness benchmarks at full benchtime and writes
# BENCH_harness.json (ns/op, allocs/op, custom metrics, and the derived
# speedup ratios). Each parallel benchmark reports the GOMAXPROCS it
# actually ran at; benchjson withholds any speedup measured at
# GOMAXPROCS=1 and records a note instead.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem . | tee bench.txt
	$(GO) run ./tools/benchjson -o BENCH_harness.json bench.txt

# bench-smoke is the CI-sized variant: one iteration per benchmark at
# -short scale (the sharded throughput pair shrinks to 1000 servers /
# 200k queries), just enough to prove the harness runs and to publish a
# BENCH_harness.json artifact from every commit.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -short -benchtime 1x -benchmem . | tee bench.txt
	$(GO) run ./tools/benchjson -o BENCH_harness.json bench.txt

# obs-smoke proves the observability plane end to end: a short
# instrumented tgsim sweep whose Chrome-trace and Prometheus dumps must
# validate, plus a live in-process handler fetched over real HTTP.
obs-smoke:
	rm -rf obs-smoke-out
	$(GO) run ./cmd/tgsim -obs obs-smoke-out -queries 1500 > /dev/null
	for p in TailGuard FIFO PRIQ T-EDFQ; do \
		$(GO) run ./tools/obscheck \
			-trace obs-smoke-out/trace_$${p}_s1.json \
			-prom obs-smoke-out/metrics_$${p}_s1.prom || exit 1; \
	done
	$(GO) run ./tools/obscheck -live
	rm -rf obs-smoke-out

# fault-smoke proves the fault-injection path end to end: a tiny seeded
# FaultSweep whose rendered tables must match the committed golden (the
# determinism acceptance gate), plus an instrumented faulted run whose
# Chrome-trace artifact (with its task_lost/hedge instants) must validate.
fault-smoke:
	$(GO) test ./internal/experiment -run TestFaultSmokeGolden -count=1
	rm -rf fault-smoke-out
	$(GO) run ./cmd/tgsim -faults canonical -fault-out fault-smoke-out -queries 1500 > /dev/null
	ls fault-smoke-out/faults_p*_s1.txt fault-smoke-out/fault_misscause_p*_s1.txt > /dev/null
	for f in fault-smoke-out/trace_fault_*_s1.json; do \
		$(GO) run ./tools/obscheck -trace $$f || exit 1; \
	done
	rm -rf fault-smoke-out

# shard-smoke proves the sharded parallel core end to end: a small
# shardscale run through cmd/tgsim that executes the stock scenario
# sequentially and at 2/4/8 shards and fails on any bit-level divergence
# (experiment.ShardScale gates every sharded run on Result.Equal).
shard-smoke:
	$(GO) run ./cmd/tgsim -exp shardscale -shard-servers 128 -queries 6000

# perf-smoke proves the simulator's shortcuts change no result: an
# end-to-end resilient faulted run on the wheel engine and on the
# reference binary heap must produce bit-identical Results, the
# randomized wheel-vs-heap pop order and least-loaded index-vs-scan
# property suites must hold, the max-load search's early-stopped,
# shared-row probes — deadline-blind rows, and single-class TF-EDFQ and
# T-EDFQ rows, which share across SLOs — must give every row the verdict
# its own full run gives, and the rows sharing a probe must have
# bit-identical full runs (2 560-verdict differential), the grouping rule
# must pair exactly the rows whose runs cannot tell their SLOs apart, SLO
# rows whose rounded absolute deadlines order a pair differently must
# still run identically on the SLO-free EDF keys, one shared run's
# per-row verdicts must equal MeetsSLOs, single-class PRIQ and
# T-EDFQ must be bit-identical to FIFO, the in-place query fill must give
# the by-value stream with fanout-sized placements that recycle without
# allocating, and quantiles read by selection must equal sorted ones.
perf-smoke:
	$(GO) test ./internal/cluster -run 'TestPerfSmokeWheelVsHeap|TestLeastLoadedIndexMatchesScanEndToEnd|TestEarlyStop|TestStoppedRunAllocations|TestMeetsSLOsEachMatchesMeetsSLOs' -count=1
	$(GO) test ./internal/workload -run 'TestNextMatchesNextInto|TestNextIntoRecycleAllocationFree|TestRecycledPlacementServesItsFanout' -count=1
	$(GO) test ./internal/metrics -run 'TestQuantileSelectionMatchesSort|TestBootstrapQuantileCIPinned' -count=1
	$(GO) test ./internal/sim -run 'TestWheel|FuzzWheelVsHeapPopOrder|TestDrain' -count=1
	$(GO) test ./internal/experiment -run 'TestEarlyStopSharedVerdictsMatchFullRuns|TestCensusDoesNotDependOnLoad|TestBisectMatchesMaxLoadPerRow|TestProbeTwins|TestSharedProbeExactAtOrderFlip|TestSingleClassPRIQAndTEDFQAreFIFO' -count=1 -v

# tgd-smoke proves the scheduler daemon end to end: enqueue a batch of
# deadline-stamped queries over a journal file, crash a worker mid-lease,
# kill and restart the daemon from the journal, drain, and assert zero
# lost and zero double-counted tasks (cmd/tgd -smoke exits nonzero on
# any violation).
tgd-smoke:
	$(GO) run ./cmd/tgd -smoke

# control-smoke proves the adaptive control plane end to end: the
# flash-crowd sweep's rendered table must match the committed golden
# (byte-identical decision traces — the determinism gate), and the
# headline claim must hold (controlled runs keep the windowed miss ratio
# near Rth while uncontrolled runs collapse).
control-smoke:
	$(GO) test ./internal/experiment -run 'TestControlSmokeGolden|TestControlHoldsSLO' -count=1
	$(GO) run ./cmd/tgsim -exp flashcrowd -control -queries 800 > /dev/null

ci: build fmt vet lint test race bench-smoke obs-smoke fault-smoke shard-smoke perf-smoke tgd-smoke control-smoke

clean:
	rm -rf bin
