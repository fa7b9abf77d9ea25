// Package tailguard is an implementation of TailGuard — tail-latency-SLO-
// and-fanout-aware earliest-deadline-first task queuing (TF-EDFQ) for
// data-intensive user-facing services — as published at IEEE ICDCS 2023
// (DOI 10.1109/ICDCS57875.2023.00042), together with the baselines it is
// evaluated against (FIFO, PRIQ, T-EDFQ), a discrete-event cluster
// simulator, a live HTTP Sensing-as-a-Service testbed, and the complete
// experiment harness regenerating every table and figure of the paper.
//
// # The idea in three lines
//
// A query fans out into kf parallel tasks; the slowest task sets the query
// latency, so F_query(t) = F_task(t)^kf. To meet a pth-percentile SLO
// x_p^SLO, TailGuard grants each task the queuing budget
//
//	T_b = x_p^SLO − x_p^u(kf),   x_p^u(kf) = F_task^{-1}(p^{1/kf}),
//
// and orders every task queue by deadline t0 + T_b. High-fanout queries
// get tighter deadlines, which is exactly the resource differentiation
// fanout-blind policies cannot express.
//
// # Package map
//
//   - Policies and deadline math: Spec, TailEstimator, Deadliner,
//     AdmissionController (re-exported from internal/core).
//   - Workloads: arrival processes, fanout models, service classes,
//     query generators (internal/workload), and the Tailbench-calibrated
//     service-time models (internal/dist).
//   - Simulation: ClusterConfig/RunCluster (internal/cluster) and the
//     Scenario/experiment harness (internal/experiment).
//   - Live testbed: TestbedConfig/RunTestbed (internal/saas).
//   - Traces: record/replay (internal/trace).
//   - Requests: multi-query request decomposition (internal/request).
//
// See example_test.go for walkthroughs that go test runs and checks, and
// DESIGN.md for the full system inventory.
package tailguard

import (
	"tailguard/internal/cluster"
	"tailguard/internal/core"
	"tailguard/internal/dist"
	"tailguard/internal/experiment"
	"tailguard/internal/metrics"
	"tailguard/internal/request"
	"tailguard/internal/saas"
	"tailguard/internal/sched"
	"tailguard/internal/trace"
	"tailguard/internal/workload"
)

// Scheduling policies (Section III.A).
type (
	// Spec is a named queuing policy: queue discipline + deadline rule.
	Spec = core.Spec
	// DeadlineRule selects how task queuing deadlines are computed.
	DeadlineRule = core.DeadlineRule
)

// The four policies evaluated in the paper.
var (
	FIFO   = core.FIFO
	PRIQ   = core.PRIQ
	TEDFQ  = core.TEDFQ
	TFEDFQ = core.TFEDFQ
)

// Specs returns the paper's four policies.
func Specs() []Spec { return core.Specs() }

// SpecByName resolves "fifo", "priq", "tedfq", "tfedfq"/"tailguard".
func SpecByName(name string) (Spec, error) { return core.SpecByName(name) }

// Deadline estimation and admission control (Sections III.B-III.C).
type (
	// TailEstimator tracks per-server latency CDFs and answers x_p^u(kf).
	TailEstimator = core.TailEstimator
	// Deadliner computes task queuing deadlines (Eqn. 6).
	Deadliner = core.Deadliner
	// AdmissionController rejects queries while the windowed task
	// deadline-miss ratio exceeds Rth.
	AdmissionController = core.AdmissionController
)

// Estimator and deadline constructors.
var (
	NewTailEstimator                  = core.NewTailEstimator
	NewStaticTailEstimator            = core.NewStaticTailEstimator
	NewHomogeneousStaticTailEstimator = core.NewHomogeneousStaticTailEstimator
	NewDeadliner                      = core.NewDeadliner
	NewAdmissionController            = core.NewAdmissionController
)

// Distributions and the Tailbench workload models (Section IV.A).
type (
	// Distribution is a latency distribution (CDF/quantile/mean/sample).
	Distribution = dist.Distribution
	// QuantileTable is a piecewise-linear quantile model.
	QuantileTable = dist.QuantileTable
	// Breakpoint is one (probability, value) pair of a QuantileTable.
	Breakpoint = dist.Breakpoint
	// ECDF is an empirical CDF over samples.
	ECDF = dist.ECDF
	// OnlineCDF is a streaming, optionally decaying latency CDF.
	OnlineCDF = dist.OnlineCDF
	// TailbenchModel couples a workload model with its paper statistics.
	TailbenchModel = dist.Workload
)

// Distribution constructors and order-statistics helpers.
var (
	NewECDF                  = dist.NewECDF
	NewOnlineCDF             = dist.NewOnlineCDF
	NewQuantileTable         = dist.NewQuantileTable
	TailbenchWorkload        = dist.TailbenchWorkload
	TailbenchNames           = dist.TailbenchNames
	QueryCDF                 = dist.QueryCDF
	QueryQuantile            = dist.QueryQuantile
	HomogeneousQueryQuantile = dist.HomogeneousQueryQuantile
	SLOViolationProbability  = dist.SLOViolationProbability
	RequiredTaskQuantile     = dist.RequiredTaskQuantile
)

// Workload generation.
type (
	// Class is one service class with its tail-latency SLO.
	Class = workload.Class
	// ClassSet is a weighted set of classes.
	ClassSet = workload.ClassSet
	// Query is one generated query.
	Query = workload.Query
	// QuerySource produces query streams.
	QuerySource = workload.QuerySource
	// Generator is the standard stochastic query source.
	Generator = workload.Generator
	// GeneratorConfig configures a Generator.
	GeneratorConfig = workload.GeneratorConfig
	// FanoutDist is a distribution over query fanouts.
	FanoutDist = workload.FanoutDist
	// ArrivalProcess produces inter-arrival gaps.
	ArrivalProcess = workload.ArrivalProcess
)

// Workload constructors.
var (
	NewPoisson             = workload.NewPoisson
	NewPareto              = workload.NewPareto
	NewFixedFanout         = workload.NewFixed
	NewWeightedFanout      = workload.NewWeighted
	NewInverseProportional = workload.NewInverseProportional
	NewZipfFanout          = workload.NewZipf
	NewClassSet            = workload.NewClassSet
	SingleClass            = workload.SingleClass
	TwoClasses             = workload.TwoClasses
	NewGenerator           = workload.NewGenerator
	RateForLoad            = workload.RateForLoad
	LoadForRate            = workload.LoadForRate
)

// Measurement.
type (
	// LatencyRecorder accumulates latency samples with exact quantiles.
	LatencyRecorder = metrics.LatencyRecorder
	// QuantileCI is a bootstrap confidence interval for a tail estimate.
	QuantileCI = metrics.QuantileCI
	// P2Quantile is a constant-memory streaming quantile estimator.
	P2Quantile = dist.P2Quantile
)

// Measurement helpers.
var (
	BootstrapQuantileCI = metrics.BootstrapQuantileCI
	NewP2Quantile       = dist.NewP2Quantile
)

// Production scheduler: embed TailGuard in a real service by wrapping
// your own task servers (shards, workers, devices) with sched's
// fanout-aware deadline queues.
type (
	// Scheduler is the concurrency-safe production scheduler.
	Scheduler = sched.Scheduler
	// SchedulerConfig configures a Scheduler.
	SchedulerConfig = sched.Config
	// SchedulerTask binds application work to a target server.
	SchedulerTask = sched.Task
	// TaskFunc is one unit of application work.
	TaskFunc = sched.TaskFunc
)

// Production-scheduler entry points and sentinel errors.
var (
	NewScheduler = sched.New
	ErrRejected  = sched.ErrRejected
	ErrClosed    = sched.ErrClosed
)

// Cluster simulation (the paper's Fig. 2 model).
type (
	// ClusterConfig configures one simulation run.
	ClusterConfig = cluster.Config
	// ClusterResult is a run's measurements.
	ClusterResult = cluster.Result
	// ClassFanout identifies one query type for per-type SLO checks.
	ClassFanout = cluster.ClassFanout
	// ServerFailure is one injected server outage window.
	ServerFailure = cluster.Failure
	// QueuingMode selects central or per-server task queuing.
	QueuingMode = cluster.QueuingMode
)

// Queuing placements (the paper's footnote 3).
const (
	CentralQueuing   = cluster.CentralQueuing
	PerServerQueuing = cluster.PerServerQueuing
)

// RunCluster executes one simulation run.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) { return cluster.Run(cfg) }

// Experiment harness (Section IV).
type (
	// Scenario is a declarative simulation setup.
	Scenario = experiment.Scenario
	// Fidelity scales experiment cost.
	Fidelity = experiment.Fidelity
	// ResultTable is a formatted experiment result.
	ResultTable = experiment.Table
	// MaxLoadBounds brackets max-load searches.
	MaxLoadBounds = experiment.MaxLoadBounds
	// ArrivalKind selects Poisson or Pareto arrivals.
	ArrivalKind = experiment.ArrivalKind
)

// Experiment fidelities and helpers.
var (
	QuickFidelity   = experiment.Quick
	FullFidelity    = experiment.Full
	MaxLoad         = experiment.MaxLoad
	ScenarioMaxLoad = experiment.ScenarioMaxLoad
)

// Live SaS testbed (Section IV.E).
type (
	// TestbedConfig configures one live testbed run.
	TestbedConfig = saas.TestbedConfig
	// TestbedResult is a run's outcome at paper scale.
	TestbedResult = saas.TestbedResult
	// EdgeNode is one live sensing edge node (HTTP server).
	EdgeNode = saas.EdgeNode
	// SensingStore is an edge node's record store.
	SensingStore = saas.Store
)

// Multi-process deployment.
type (
	// NodeRef addresses one edge node (local or remote).
	NodeRef = saas.NodeRef
	// NodeManifest describes a deployed node set for remote driving.
	NodeManifest = saas.Manifest
	// WorkloadRunConfig drives the SaS workload against a manifest.
	WorkloadRunConfig = saas.WorkloadRunConfig
)

// Testbed entry points.
var (
	RunTestbed        = saas.RunTestbed
	RunWorkload       = saas.RunWorkload
	LoadNodeManifest  = saas.LoadManifest
	BuildStores       = saas.BuildStores
	SaSClasses        = saas.SaSClasses
	ClusterDelayModel = saas.ClusterDelayModel
)

// Traces.
type (
	// TraceRecord is one traced query with pinned service times.
	TraceRecord = trace.Record
	// TraceReplayer replays a trace as a QuerySource.
	TraceReplayer = trace.Replayer
)

// Trace functions.
var (
	GenerateTrace  = trace.Generate
	SaveTrace      = trace.Save
	LoadTrace      = trace.Load
	SaveTraceGob   = trace.SaveGob
	LoadTraceGob   = trace.LoadGob
	NewReplayer    = trace.NewReplayer
	SummarizeTrace = trace.Summarize
)

// Request-level decomposition extension (Section III.B remark).
type (
	// RequestPlan describes a multi-query request and its SLO.
	RequestPlan = request.Plan
	// RequestRunConfig configures a request-workload simulation.
	RequestRunConfig = request.RunConfig
	// RequestResult is its outcome.
	RequestResult = request.Result
	// BudgetStrategy splits the request budget across queries.
	BudgetStrategy = request.Strategy
)

// Request entry points.
var (
	RunRequests             = request.Run
	UnloadedRequestQuantile = request.UnloadedRequestQuantile
	BudgetStrategies        = request.Strategies
)
