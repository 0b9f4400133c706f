// Package floodgate is a from-scratch reproduction of "Floodgate:
// Taming Incast in Datacenter Networks" (Liu et al., CoNEXT 2021): a
// switch-based per-hop, per-destination flow control evaluated on a
// packet-level event-driven datacenter simulator, together with the
// congestion-control protocols it is carried on (DCQCN, DCTCP, TIMELY,
// HPCC, Swift) and the flow-control baselines the paper compares
// against (BFC, NDP, PFC-with-tag).
//
// Three levels of API:
//
//   - Experiments: RunExperiment replays any table or figure of the
//     paper's evaluation and returns the same rows/series.
//
//   - Scenarios: Run executes one simulation assembled from a
//     topology, a Scheme (congestion control × flow control) and a
//     workload; schemes and workloads are composable.
//
//   - Devices: NewNetwork exposes the raw simulator (switches, hosts,
//     flows) for custom studies.
//
// Everything is deterministic given (configuration, seed).
package floodgate

import (
	"floodgate/internal/app"
	"floodgate/internal/core"
	"floodgate/internal/device"
	"floodgate/internal/exp"
	"floodgate/internal/fault"
	"floodgate/internal/metrics"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/trace"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// NodeID identifies a host or switch; FlowID one transfer.
type (
	NodeID = packet.NodeID
	FlowID = packet.FlowID
)

// ---- Units ----

// Core quantities (picosecond time, bits per second, bytes).
type (
	Time     = units.Time
	Duration = units.Duration
	BitRate  = units.BitRate
	ByteSize = units.ByteSize
)

// Common constants re-exported for configuration literals.
const (
	Nanosecond  = units.Nanosecond
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Second      = units.Second
	Kbps        = units.Kbps
	Mbps        = units.Mbps
	Gbps        = units.Gbps
	KB          = units.KB
	MB          = units.MB
)

// ---- Experiments (the paper's evaluation) ----

// Options scales experiments between smoke test and paper scale (see
// DESIGN.md §"slow-motion scaling") and sets the run-level parallelism
// (Options.Parallelism: 0 = all cores, 1 = serial; output is
// bit-identical at every setting).
type Options = exp.Options

// Table is one rendered experiment result.
type Table = exp.Table

// Experiment is a registered paper figure/table reproduction.
type Experiment = exp.Experiment

// Experiments lists every reproducible figure and table in paper order.
func Experiments() []Experiment { return exp.List() }

// RunExperiment reproduces one figure/table by id (e.g. "fig10",
// "table2"); see Experiments for the catalogue. Independent
// simulations within the experiment run across a worker pool sized by
// Options.Parallelism.
func RunExperiment(id string, o Options) ([]Table, error) {
	return exp.RunByID(id, o)
}

// RunExperiments executes several experiments, overlapping all their
// simulations through one shared worker pool, and emits each
// experiment's tables strictly in the order given. With
// Options.Parallelism = 1 experiments run back to back, serially.
func RunExperiments(ids []string, o Options, emit func(id string, tables []Table, err error)) {
	exp.RunExperiments(ids, o, emit)
}

// ---- Scenarios ----

// Scheme is a transport/flow-control combination.
type Scheme = exp.Scheme

// Scheme constructors (the paper's §6 comparisons plus the §8/§2.3
// extensions DCTCP and Swift).
var (
	DCQCN  = exp.DCQCN
	DCTCP  = exp.DCTCP
	TIMELY = exp.TIMELY
	HPCC   = exp.HPCC
	SWIFT  = exp.SWIFT
	NDP    = exp.NDP
	BFC    = exp.BFC
)

// WithFloodgate layers the practical Floodgate design over a scheme.
func WithFloodgate(o Options, s Scheme, baseBDP ByteSize) Scheme {
	return exp.WithFloodgate(o, s, baseBDP)
}

// WithIdeal layers the strawman (ideal) Floodgate design over a scheme.
func WithIdeal(o Options, s Scheme, baseBDP ByteSize) Scheme {
	return exp.WithIdeal(o, s, baseBDP)
}

// WithPFCTag layers the reactive PFC-with-tag derivative over a scheme.
func WithPFCTag(s Scheme, oneHopBDP ByteSize) Scheme { return exp.WithPFCTag(s, oneHopBDP) }

// FloodgateConfig is the switch-module configuration (§4 parameters).
type FloodgateConfig = core.Config

// Floodgate design modes.
const (
	Practical = core.Practical
	Ideal     = core.Ideal
)

// DefaultFloodgateConfig returns the paper's §6 binding.
func DefaultFloodgateConfig(baseBDP ByteSize) FloodgateConfig { return core.DefaultConfig(baseBDP) }

// IdealFloodgateConfig returns the strawman binding.
func IdealFloodgateConfig(baseBDP ByteSize) FloodgateConfig { return core.IdealConfig(baseBDP) }

// WithFloodgateConfig layers an explicit Floodgate configuration.
func WithFloodgateConfig(s Scheme, cfg FloodgateConfig, suffix string) Scheme {
	return exp.WithFloodgateCfg(s, cfg, suffix)
}

// RunConfig assembles one simulation run; RunResult carries its
// statistics collector.
type (
	RunConfig = exp.RunConfig
	RunResult = exp.RunResult
)

// Run executes one simulation run to completion (workload window plus
// drain) and returns the collected statistics.
func Run(rc RunConfig) *RunResult { return exp.Run(rc) }

// RunMany executes independent simulation runs across a worker pool
// sized by the first config's Options.Parallelism (0 = all cores) and
// returns results by submission index. Results are bit-identical to
// calling Run in a loop; see DESIGN.md §"Parallel execution".
func RunMany(rcs []RunConfig) []*RunResult { return exp.RunMany(rcs) }

// ---- Faults ----

// FaultPlan schedules deterministic link/switch failures for a run
// (RunConfig.Faults or Network.InstallFaults): timed link-down/up and
// switch-restart events plus optional Gilbert–Elliott burst loss.
// Same plan + same seed = bit-identical runs at any parallelism.
type (
	FaultPlan      = fault.Plan
	FaultEvent     = fault.Event
	FaultLink      = fault.Link
	FaultKind      = fault.Kind
	GilbertElliott = fault.GilbertElliott
)

// Fault event kinds.
const (
	FaultLinkDown      = fault.LinkDown
	FaultLinkUp        = fault.LinkUp
	FaultSwitchRestart = fault.SwitchRestart
)

// FaultFlap builds the event sequence for a repeatedly flapping link;
// BurstWithMeanLoss builds a bursty loss chain with a given mean rate.
var (
	FaultFlap         = fault.Flap
	BurstWithMeanLoss = fault.BurstWithMeanLoss
)

// FaultStats summarizes a run's fault-plane activity
// (Network.FaultStats); StallDiagnosis explains a tripped progress
// watchdog (RunResult.Diagnosis); RunError is the structured panic the
// executor recovers at the run boundary.
type (
	FaultStats     = device.FaultStats
	StallDiagnosis = exp.StallDiagnosis
	RunError       = exp.RunError
)

// FaultScenarioNames lists the named fault scenarios of the
// "faultmatrix" experiment (floodsim -faults).
var FaultScenarioNames = exp.FaultScenarioNames

// RunFaultScenario runs one named fault scenario against DCQCN and
// DCQCN+Floodgate and returns the resulting matrix rows.
func RunFaultScenario(name string, o Options) ([]Table, error) {
	return exp.RunFaultScenario(name, o)
}

// RecoveredPanics reports how many experiment runs panicked and were
// isolated into errors by the parallel executor.
var RecoveredPanics = exp.RecoveredPanics

// ---- Topologies ----

// Topology is an immutable fabric with routing; Port classes follow
// the paper's reporting buckets (ToR-Up, Core, ToR-Down, ...).
type (
	Topology        = topo.Topology
	LeafSpineConfig = topo.LeafSpineConfig
	FatTreeConfig   = topo.FatTreeConfig
	TestbedConfig   = topo.TestbedConfig
	ClosConfig      = topo.ClosConfig
	PortClass       = topo.PortClass
)

// Paper topologies, plus the large-fabric presets the structural
// router makes affordable (FatTree16/32, the multi-pod Clos family).
var (
	DefaultLeafSpine = topo.DefaultLeafSpine
	DefaultFatTree   = topo.DefaultFatTree
	DefaultTestbed   = topo.DefaultTestbed
	DefaultClos      = topo.DefaultClos
	Clos100k         = topo.Clos100k
	FatTree16        = topo.FatTree16
	FatTree32        = topo.FatTree32
)

// TopoPresets lists the -topo preset names with one-line descriptions,
// in menu order (floodsim -topo list; only scaleincast reads
// Options.Topo).
var TopoPresets = exp.TopoPresets

// Port classes for per-hop statistics.
const (
	ClassToRUp   = topo.ClassToRUp
	ClassToRDown = topo.ClassToRDown
	ClassCore    = topo.ClassCore
	ClassAggUp   = topo.ClassAggUp
	ClassAggDown = topo.ClassAggDown
)

// ---- Workloads ----

// CDF is a flow-size distribution; FlowSpec one pre-generated arrival.
type (
	CDF           = workload.CDF
	FlowSpec      = workload.FlowSpec
	PoissonConfig = workload.PoissonConfig
	IncastConfig  = workload.IncastConfig
)

// The paper's four Fig 7 workloads.
var (
	Memcached = workload.Memcached
	WebServer = workload.WebServer
	Hadoop    = workload.Hadoop
	WebSearch = workload.WebSearch
	Workloads = workload.Workloads
)

// Workload generators.
var (
	Poisson          = workload.Poisson
	Incast           = workload.Incast
	SuccessiveIncast = workload.SuccessiveIncast
	MergeSpecs       = workload.Merge
	CrossRackSenders = workload.CrossRackSenders
)

// Flow files: stream FlowSpecs from NDJSON (one integer-valued JSON
// object per line, sorted by start_ps) instead of materializing them;
// WriteFlowSpecs freezes a generated workload to the same format
// byte-stably. Wire a reader into a run via RunConfig.Source.
type (
	SpecSource = workload.SpecSource
	SpecReader = workload.SpecReader
)

var (
	OpenSpecFile   = workload.OpenSpecFile
	NewSpecReader  = workload.NewSpecReader
	WriteFlowSpecs = workload.WriteSpecs
)

// RunFlowFile replays an NDJSON flow file against DCQCN and
// DCQCN+Floodgate and reports per-scheme FCT and goodput
// (floodsim -flows-from).
func RunFlowFile(path string, o Options) ([]Table, error) { return exp.RunFlowFile(path, o) }

// ---- Application plane (closed loop) ----

// The app plane (RunConfig.App) issues partition-aggregate requests
// with deadlines over the simulated fabric: timeouts retry under a
// pluggable policy, hedges race slow attempts, budgets and circuit
// breakers bound the retry storm, and RunResult.SLO scores what the
// application saw. The "sloincast" experiment is its standard harness.
type (
	AppConfig   = app.Config
	AppBreaker  = app.Breaker
	RetryPolicy = app.RetryPolicy
	FixedRetry  = app.FixedRetry
	ExpBackoff  = app.ExpBackoff
	Hedged      = app.Hedged
	AppRecord   = app.Record
	SLO         = app.SLO
)

// NewRand returns the deterministic random source used throughout.
func NewRand(seed uint64) *sim.Rand { return sim.NewRand(seed) }

// ---- Raw devices ----

// NetworkConfig configures the raw simulator; Network is the wired
// fabric; Flow one transfer.
type (
	NetworkConfig = device.Config
	Network       = device.Network
	Flow          = device.Flow
)

// NewNetwork wires a network from the config (Topo and Engine are
// required; see device.Config).
func NewNetwork(cfg NetworkConfig) *Network { return device.New(cfg) }

// NewEngine returns a fresh event engine.
func NewEngine() *sim.Engine { return sim.NewEngine() }

// NewFloodgate returns the per-switch Floodgate module factory for use
// in a NetworkConfig.
func NewFloodgate(cfg FloodgateConfig) device.FCFactory { return core.New(cfg) }

// ---- Statistics ----

// Collector accumulates a run's measurements; Category tags flows for
// the victim analysis.
type (
	Collector = stats.Collector
	Category  = stats.Category
	FCTSample = stats.FCTSample
)

// Flow categories.
const (
	CatIncast       = stats.CatIncast
	CatVictimIncast = stats.CatVictimIncast
	CatVictimPFC    = stats.CatVictimPFC
)

// NewCollector returns a collector with the given time-series bin.
func NewCollector(bin Duration) *Collector { return stats.NewCollector(bin) }

// FCTStats reduces samples to (average, p99).
var FCTStats = stats.FCTStats

// ---- Tracing ----

// TraceBuffer is the simulator's flight recorder; TraceFilter selects
// what it retains; TraceEvent is one lifecycle point.
type (
	TraceBuffer = trace.Buffer
	TraceFilter = trace.Filter
	TraceEvent  = trace.Event
	TraceOp     = trace.Op
)

// Trace lifecycle points.
const (
	TraceSend    = trace.OpSend
	TraceEnqueue = trace.OpEnqueue
	TracePark    = trace.OpPark
	TraceTx      = trace.OpTx
	TraceDeliver = trace.OpDeliver
	TraceDrop    = trace.OpDrop
	TraceCredit  = trace.OpCredit
	TracePause   = trace.OpPause
	TraceResume  = trace.OpResume
	TraceRetx    = trace.OpRetx
	TraceRTO     = trace.OpRTO
)

// NewTraceBuffer returns a ring retaining the newest `capacity`
// matching events; attach it via NetworkConfig.Trace or RunConfig via
// the raw API.
func NewTraceBuffer(capacity int, f TraceFilter) *TraceBuffer { return trace.NewBuffer(capacity, f) }

// ---- Observability ----

// ObsConfig (Options.Obs / NewNetwork + MetricsRegistry) switches on
// per-run metrics sampling and timeline export: NDJSON/CSV time series
// of engine, device and Floodgate instruments plus a Chrome
// trace_event JSON that loads in Perfetto. Enabling it never changes a
// run's tables, and output files are byte-identical at any
// Options.Parallelism (see DESIGN.md §8).
type ObsConfig = exp.ObsConfig

// Metrics instruments for custom studies over the raw device API:
// register on a MetricsRegistry, attach the bundle via
// NetworkConfig.Metrics, sample with MetricsSampler.
type (
	MetricsRegistry  = metrics.Registry
	MetricsSampler   = metrics.Sampler
	MetricsCounter   = metrics.Counter
	MetricsGauge     = metrics.Gauge
	MetricsHistogram = metrics.Histogram
	NetMetrics       = device.NetMetrics
	ObsManifest      = metrics.Manifest
)

// NewMetricsRegistry returns an empty instrument registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewNetMetrics registers the device/Floodgate instrument bundle.
func NewNetMetrics(r *MetricsRegistry) NetMetrics { return device.NewNetMetrics(r) }

// NewMetricsSampler snapshots every registered instrument on a fixed
// simulation-clock period; call Start after registration is complete.
func NewMetricsSampler(eng *sim.Engine, r *MetricsRegistry, period Duration) *MetricsSampler {
	return metrics.NewSampler(eng, r, period)
}

// WriteChromeTrace renders trace events in Chrome trace_event JSON
// (open in Perfetto or chrome://tracing).
var WriteChromeTrace = metrics.WriteChromeTrace

// WriteObsManifest writes an experiment's observability manifest
// (run parameters + table content hash) and returns its path.
var WriteObsManifest = exp.WriteObsManifest

// TablesHash folds rendered tables into the manifest's content hash.
var TablesHash = exp.TablesHash

// FromNanos converts a nanosecond count (e.g. time.Duration's
// Nanoseconds) to a simulation Duration.
var FromNanos = units.FromNanos
