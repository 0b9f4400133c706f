package exp

import (
	"fmt"
	"runtime/debug"

	"floodgate/internal/app"
	"floodgate/internal/device"
	"floodgate/internal/fault"
	"floodgate/internal/forensics"
	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// Options scales every experiment between smoke-test and paper scale
// using a "slow-motion" model: link rates shrink by Scale while
// propagation delays and every protocol time constant stretch by
// 1/Scale, so all byte-dimensioned quantities — BDPs, windows, ECN
// thresholds, buffer sizes, flow sizes — stay at their paper values
// and the buffer/FCT *shapes* are preserved. Rack width also shrinks
// with Scale. Scale 1 is the paper's 160-host, 100/400 Gbps fabric.
type Options struct {
	// Scale in (0,1].
	Scale float64
	// Seed drives workload generation and every stochastic tie-break.
	Seed uint64
	// Parallelism caps how many independent simulations run
	// concurrently: 0 uses every core (GOMAXPROCS), 1 reproduces the
	// serial path exactly, n > 1 uses an n-worker pool. Output is
	// bit-identical at every setting (see parallel.go).
	Parallelism int
	// Obs switches on per-run metrics sampling and timeline export
	// (see obs.go). Enabling it never changes table output.
	Obs ObsConfig
	// Shards is accepted only as 0 or 1; any other value fails
	// RunConfig.Validate.
	//
	// Deprecated: the sharded executor was removed (DESIGN.md §10);
	// every run executes on one engine.
	Shards int
	// App overlays a small closed-loop request workload on experiments
	// that support it (currently faultmatrix), appending SLO columns to
	// their tables. Off by default, leaving every existing table
	// byte-identical; the dedicated sloincast experiment runs the app
	// plane regardless.
	App bool
	// Topo selects a large-fabric preset by name (see TopoPresets) for
	// the experiments that take one — currently only scaleincast reads
	// it, so every paper figure keeps its own fixed fabric and stays
	// byte-identical. Empty picks the experiment's default preset.
	// Unlike Scale, a preset fixes the fabric's dimensions exactly
	// (clos100k is 102,400 hosts at any Scale); Scale still applies
	// the slow-motion rate/time model on top.
	Topo string
}

// DefaultOptions returns a laptop-friendly scale.
func DefaultOptions() Options { return Options{Scale: 0.25, Seed: 1} }

func (o Options) norm() Options {
	if o.Scale <= 0 {
		o.Scale = 0.25
	}
	if o.Scale > 1 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// hostsPerToR maps scale to rack width (paper: 16). The floor of 6
// keeps a rack's incast share (hosts × 35 MTU) above the per-dst
// Floodgate window so source-side taming stays observable.
func (o Options) hostsPerToR() int {
	h := int(16*o.Scale + 0.5)
	if h < 6 {
		h = 6
	}
	return h
}

// rate scales a paper link rate down.
func (o Options) rate(full units.BitRate) units.BitRate {
	return units.BitRate(float64(full) * o.Scale)
}

// stretch expands a paper time constant (durations, timer periods).
func (o Options) stretch(full units.Duration) units.Duration {
	return units.Duration(float64(full) / o.Scale)
}

// windowOverride, when positive, replaces every experiment's workload
// window. It exists for the test suite's smoke pass, which runs all
// experiments on a budget; production paths never set it.
var windowOverride units.Duration

// duration is the workload window. It stays at the paper's wall-clock
// value at every scale: with the slow-motion clock this covers fewer
// (but still hundreds of) RTTs, keeping total event counts roughly
// proportional to Scale².
func (o Options) duration(full units.Duration) units.Duration {
	if windowOverride > 0 {
		return windowOverride
	}
	return full
}

// spines scales the core layer with rack width, exactly preserving the
// paper's non-blocking ratio (16 hosts × 100G = 4 spines × 400G): one
// spine per four hosts per rack. Fewer spines also shrink the
// aggregate of per-spine Floodgate windows, keeping the mechanism's
// engagement condition scale-invariant.
func (o Options) spines() int {
	h := o.hostsPerToR()
	s := (h + 3) / 4
	if s < 1 {
		s = 1
	}
	return s
}

// bufferSize scales the 20MB shared switch buffer with rack width so
// the buffer-pressure ratio (offered incast bytes vs buffer) matches
// the paper's.
func (o Options) bufferSize() units.ByteSize {
	return units.ByteSize(float64(20*units.MB) * float64(o.hostsPerToR()) / 16)
}

// leafSpine builds the §6 fabric at this scale.
func (o Options) leafSpine() *topo.Topology {
	c := topo.DefaultLeafSpine()
	c.HostsPerToR = o.hostsPerToR()
	c.Spines = o.spines()
	c.HostRate = o.rate(c.HostRate)
	c.SpineRate = o.rate(c.SpineRate)
	c.Prop = o.stretch(c.Prop)
	return c.Build()
}

// fatTree builds the §6.2 8-ary fabric at this scale.
func (o Options) fatTree() *topo.Topology {
	c := topo.DefaultFatTree()
	c.Rate = o.rate(c.Rate)
	c.Prop = o.stretch(c.Prop)
	h := int(4*o.Scale + 0.5)
	if h < 2 {
		h = 2
	}
	c.HostsPerEdge = h
	return c.Build()
}

// RunConfig assembles one simulation run.
type RunConfig struct {
	Topo     *topo.Topology
	Scheme   Scheme
	Specs    []workload.FlowSpec
	Duration units.Duration // workload window; the run drains afterwards
	Drain    units.Duration // extra time allowed for completions (default 4x)
	Seed     uint64
	Opt      Options // supplies the time-stretch for protocol timers

	BufferSize     units.ByteSize
	PFCOff         bool
	LossRate       float64
	CreditLossRate float64
	ECN            *device.ECNConfig // override scheme default
	BinWidth       units.Duration

	// Faults injects deterministic link/switch failures (see
	// internal/fault). Nil runs a healthy fabric.
	Faults *fault.Plan
	// StallHorizon arms the progress watchdog: no payload delivered for
	// this long stops the run with a StallDiagnosis instead of burning
	// the time bound. Zero picks a default (4×RTO) when Faults is set
	// and leaves the watchdog off otherwise.
	StallHorizon units.Duration

	// App overlays the closed-loop application plane (see internal/app):
	// requests, deadlines, retries, hedging and circuit breaking on top
	// of (or instead of) the open-loop Specs. Nil leaves every existing
	// run byte-identical.
	App *app.Config
	// Source streams additional open-loop flow specs (e.g. from an
	// NDJSON file via workload.OpenSpecFile) without materializing them;
	// specs must arrive in non-decreasing Start order, after Specs'
	// latest start. SourceLabel names the stream in content-hash labels.
	Source      workload.SpecSource
	SourceLabel string
}

// Validate rejects configurations that would misrun silently.
func (rc RunConfig) Validate() error {
	if rc.Topo == nil {
		return fmt.Errorf("exp: RunConfig.Topo is nil")
	}
	if rc.Duration <= 0 {
		return fmt.Errorf("exp: RunConfig.Duration must be positive, got %v", rc.Duration)
	}
	if rc.Drain < 0 {
		return fmt.Errorf("exp: RunConfig.Drain must be non-negative, got %v", rc.Drain)
	}
	if !(rc.LossRate >= 0 && rc.LossRate <= 1) {
		return fmt.Errorf("exp: RunConfig.LossRate %g outside [0, 1]", rc.LossRate)
	}
	if !(rc.CreditLossRate >= 0 && rc.CreditLossRate <= 1) {
		return fmt.Errorf("exp: RunConfig.CreditLossRate %g outside [0, 1]", rc.CreditLossRate)
	}
	if rc.StallHorizon < 0 {
		return fmt.Errorf("exp: RunConfig.StallHorizon must be non-negative, got %v", rc.StallHorizon)
	}
	if rc.Faults != nil {
		if err := rc.Faults.Validate(); err != nil {
			return err
		}
	}
	if rc.Opt.Shards != 0 && rc.Opt.Shards != 1 {
		return fmt.Errorf("exp: Options.Shards = %d, but the sharded executor was removed; leave it 0 or 1", rc.Opt.Shards)
	}
	if rc.App != nil {
		if rc.App.Requests <= 0 {
			return fmt.Errorf("exp: RunConfig.App.Requests must be positive, got %d", rc.App.Requests)
		}
		if rc.App.Interval <= 0 {
			return fmt.Errorf("exp: RunConfig.App.Interval must be positive, got %v", rc.App.Interval)
		}
		if rc.App.Deadline <= 0 {
			return fmt.Errorf("exp: RunConfig.App.Deadline must be positive, got %v", rc.App.Deadline)
		}
	}
	return nil
}

// RunResult carries the collector plus run metadata.
type RunResult struct {
	Scheme string
	Stats  *stats.Collector
	// Net is the simulated network: its engine, devices and flows.
	Net *device.Network
	// Cluster is the same network as Net.
	//
	// Deprecated: use Net.
	Cluster *device.Network

	Duration  units.Duration // workload window
	Completed int
	Total     int

	// Stalled reports the progress watchdog tripped; Diagnosis then
	// explains where the undelivered bytes were stuck.
	Stalled   bool
	Diagnosis *StallDiagnosis

	// Forensics is the merged causal-forensics report; nil unless
	// Options.Obs.Forensics was set.
	Forensics *forensics.Report

	// SLO scores the closed-loop application plane; nil unless
	// RunConfig.App was set. AppRecords is the per-request outcome
	// detail behind it, in request order.
	SLO        *app.SLO
	AppRecords []app.Record
}

// DeliveredBytes is the payload delivered to receivers.
func (r *RunResult) DeliveredBytes() units.ByteSize { return r.Net.DeliveredBytes() }

// FaultStats reports the run's fault-plane counters.
func (r *RunResult) FaultStats() device.FaultStats { return r.Net.FaultStats() }

// Processed is the engine's executed event count.
func (r *RunResult) Processed() uint64 { return r.Net.Eng.Processed }

// Run executes one configured simulation: install the workload, run
// the workload window plus drain time (stopping early once every flow
// completes), close open statistics, and report. Invalid configs and
// internal failures panic with a *RunError naming the run's content
// hash; the parallel executor recovers it at the run boundary so one
// faulting run cannot kill a sweep.
func Run(rc RunConfig) *RunResult {
	defer func() {
		if v := recover(); v != nil {
			if _, ok := v.(*RunError); ok {
				panic(v)
			}
			panic(&RunError{ConfigHash: obsLabel(rc), Value: v, Stack: string(debug.Stack())})
		}
	}()
	if err := rc.Validate(); err != nil {
		panic(err)
	}
	opt := rc.Opt.norm()
	binW := rc.BinWidth
	if binW == 0 {
		binW = 10 * units.Microsecond
	}
	eng := sim.NewEngine()
	ecn := device.ECNConfig{Enable: rc.Scheme.ECN, KMin: 40 * units.KB, KMax: 160 * units.KB, PMax: 0.2}
	if rc.ECN != nil {
		ecn = *rc.ECN
	}
	cfg := device.Config{
		Topo:           rc.Topo,
		Engine:         eng,
		Stats:          stats.NewCollector(binW),
		Seed:           rc.Seed ^ 0x5eed,
		BufferSize:     rc.BufferSize,
		RTO:            opt.stretch(units.Millisecond),
		CNPInterval:    opt.stretch(50 * units.Microsecond),
		PFC:            device.PFCConfig{Enable: !rc.PFCOff && !rc.Scheme.NDP, Alpha: 2},
		ECN:            ecn,
		INT:            rc.Scheme.INT,
		CC:             rc.Scheme.CC,
		FC:             rc.Scheme.FC,
		QueuesPerPort:  rc.Scheme.QueuesPerPort,
		PerDstPause:    rc.Scheme.PerDstPause,
		LossRate:       rc.LossRate,
		CreditLossRate: rc.CreditLossRate,
	}
	if rc.Scheme.NDP {
		cfg.NDP = device.NDPConfig{Enable: true}
	}
	if cfg.BufferSize == 0 {
		cfg.BufferSize = opt.bufferSize()
	}
	// Observability: a private registry, sampler and trace ring per run.
	// Sampler ticks only read state, so enabling this cannot change the
	// simulation outcome (see obs.go and DESIGN.md §8).
	var obs *obsRun
	if opt.Obs.Enabled() {
		obs = newObsRun(rc, opt, eng, &cfg)
	}
	if opt.Obs.Forensics {
		cfg.Forensics = forensics.NewRecorder()
	}
	net := device.New(cfg)
	net.InstallFaults(rc.Faults, rc.Seed)
	if obs != nil {
		obs.start()
	}

	// Register the whole workload up front (FlowID = spec order) and let
	// the injection chain start flows at their Start times; the event
	// queue stays shallow even for millions of arrivals.
	total := len(rc.Specs)
	for _, s := range rc.Specs {
		net.RegisterFlow(s.Src, s.Dst, s.Size, s.Start, s.Cat)
	}
	if rc.Source != nil {
		// Streamed specs register one at a time — the source is never
		// materialized, so flow files larger than memory still run.
		for {
			s, ok, err := rc.Source.Next()
			if err != nil {
				panic(fmt.Sprintf("exp: flow source %q: %v", rc.SourceLabel, err))
			}
			if !ok {
				break
			}
			net.RegisterFlow(s.Src, s.Dst, s.Size, s.Start, s.Cat)
			total++
		}
	}
	// The app plane registers its attempt flows after the open-loop
	// workload (deferred: injection skips them, Plane launches them).
	var dispatch *app.Dispatch
	if rc.App != nil {
		reqs := app.GenerateRequests(rc.Topo, *rc.App, rc.Seed^0xa44)
		dispatch = app.Build(net, reqs, *rc.App)
	}
	net.SealFlows()

	// The run stops at the instant the last open-loop flow completes or
	// the last request resolves (quorum, give-up or shed).
	done := 0
	resolved := func() {
		done++
		if done == total {
			eng.Stop()
		}
	}
	var plane *app.Plane
	if dispatch != nil {
		total += dispatch.NumRequests()
		plane = app.NewPlane(net, dispatch)
		plane.OnResolve = resolved
		net.OnFlowDone = func(f *device.Flow, now units.Time) {
			if f.Attempt == 0 {
				resolved()
			}
			plane.OnFlowDone(f, now)
		}
	} else {
		net.OnFlowDone = func(*device.Flow, units.Time) { resolved() }
	}

	drain := rc.Drain
	if drain == 0 {
		// DCQCN's additive recovery is slow on the stretched clock;
		// leave generous room for laggards (the run stops as soon as
		// every flow completes, so idle drain is free).
		drain = 4*rc.Duration + 400*units.Millisecond
	}

	// Progress watchdog: faulted runs can wedge in ways loss-free runs
	// cannot (dead links, restarted peers), so they get one by default.
	horizon := rc.StallHorizon
	if horizon == 0 && rc.Faults != nil {
		horizon = 4 * cfg.RTO
	}
	var diag *StallDiagnosis
	var wd *sim.Watchdog
	if horizon > 0 {
		progress := func() int64 { return int64(net.DeliveredBytes()) }
		wd = sim.NewWatchdog(eng, horizon, progress, func() {
			diag = stallDiagnosis(net, plane, horizon, total-done)
			net.Metrics.WatchdogTrips.Inc()
			eng.Stop()
		})
	}
	if total > 0 {
		eng.Run(units.Time(rc.Duration + drain))
	}
	if wd != nil {
		wd.Stop()
	}
	net.Finalize()
	var frep *forensics.Report
	if opt.Obs.Forensics {
		flows := net.Flows()
		metas := make([]forensics.FlowMeta, 0, len(flows))
		for _, f := range flows {
			if !f.Launched() {
				continue // unused app attempt: registered but never started
			}
			metas = append(metas, forensics.FlowMeta{
				ID: f.ID, Src: f.Src, Dst: f.Dst, Size: f.Size,
				Start: f.Start, Finish: f.Finish, Done: f.Done(),
				Attempt: f.Attempt,
			})
		}
		frep = forensics.BuildReport(cfg.Forensics, metas)
	}
	if obs != nil {
		if err := obs.export(frep); err != nil {
			panic(fmt.Sprintf("exp: observability export failed: %v", err))
		}
	}
	res := &RunResult{
		Scheme:    rc.Scheme.Name,
		Stats:     net.Stats,
		Net:       net,
		Cluster:   net,
		Duration:  rc.Duration,
		Completed: done,
		Total:     total,
		Stalled:   diag != nil,
		Diagnosis: diag,
		Forensics: frep,
	}
	if plane != nil {
		res.AppRecords = plane.Records()
		slo := app.BuildSLO(res.AppRecords, rc.Duration)
		res.SLO = &slo
	}
	return res
}

// stallDiagnosis snapshots where a wedged run's undelivered bytes are
// stuck, folding in the app plane's state when one is installed.
func stallDiagnosis(net *device.Network, plane *app.Plane, horizon units.Duration, incomplete int) *StallDiagnosis {
	now := net.Eng.Now()
	ss := net.StallSnapshot()
	d := &StallDiagnosis{
		At:                now,
		Horizon:           horizon,
		DeliveredBytes:    ss.DeliveredBytes,
		IncompleteFlows:   incomplete,
		ExhaustedWindows:  ss.ExhaustedWindows,
		WindowDeficit:     ss.WindowDeficit,
		ParkedBytes:       ss.ParkedBytes,
		PausedSwitchPorts: ss.PausedSwitchPorts,
		PausedHosts:       ss.PausedHosts,
		LinksDown:         ss.LinksDown,
	}
	if plane != nil {
		d.HasApp = true
		d.PendingRequests, d.RetryTimers, d.OpenBreakers = plane.StallState(now)
	}
	return d
}

// incastMixSpecs builds the paper's default §6 workload: Poisson
// background at 0.8 load over the given CDF, plus periodic 30–40 MTU
// incast at destination load 0.5, victims categorised by rack.
func incastMixSpecs(tp *topo.Topology, cdf *workload.CDF, dur units.Duration, seed uint64, degree int) []workload.FlowSpec {
	r := sim.NewRand(seed)
	hostRate := tp.Node(tp.Hosts[0]).Ports[0].Rate
	dst := tp.Hosts[len(tp.Hosts)-1]
	poisson := workload.Poisson(workload.PoissonConfig{
		CDF: cdf, Load: 0.8,
		Hosts: tp.Hosts, HostRate: hostRate,
		ExcludeDst: map[topoNodeID]bool{dst: true},
		Until:      dur,
		Categorize: workload.RackVictimCategorizer(tp, dst),
	}, r.Fork())
	incast := workload.Incast(workload.IncastConfig{
		Dst: dst, Senders: workload.CrossRackSenders(tp, dst),
		Degree: degree, MinSize: 30 * mtu, MaxSize: 40 * mtu,
		Load: 0.5, DstRate: hostRate, Until: dur,
	}, r.Fork())
	return workload.Merge(poisson, incast)
}

// pureIncastSpecs: every host outside dst's rack sends one 30–40 MTU
// flow at t=0 (Fig 14).
func pureIncastSpecs(tp *topo.Topology, seed uint64) []workload.FlowSpec {
	r := sim.NewRand(seed)
	dst := tp.Hosts[len(tp.Hosts)-1]
	var specs []workload.FlowSpec
	for _, src := range workload.CrossRackSenders(tp, dst) {
		size := 30*mtu + units.ByteSize(r.Int63n(int64(10*mtu)+1))
		specs = append(specs, workload.FlowSpec{Src: src, Dst: dst, Size: size, Cat: catIncast})
	}
	return specs
}

// newRand builds a seeded source (exp helpers).
func newRand(seed uint64) *sim.Rand { return sim.NewRand(seed) }
