package exp

import (
	"runtime"
	"testing"

	"floodgate/internal/app"
	"floodgate/internal/fault"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// Macro benchmarks: whole simulations measured end to end, the numbers
// the engine microbenchmarks exist to improve. Each iteration executes
// one complete run (topology build, workload, event loop, drain) and
// reports, beside ns/op, two throughput metrics:
//
//   - events/s       — engine events executed per wall-clock second
//   - simsec/wallsec — simulated seconds advanced per wall-clock second
//
// The second is the paper-reproduction figure of merit: how much
// simulated time a second of hardware buys. Tracked across PRs in
// BENCH_PR*.json (see EXPERIMENTS.md).

// BenchmarkRunIncast is the incast macro workload: every cross-rack
// host sends one 30-40 MTU flow to a single victim at t=0 through
// DCQCN+Floodgate — the paper's core stress, and the backlog regime
// (hundreds of concurrent flows, tens of thousands of queued events)
// where scheduler cost dominates.
func BenchmarkRunIncast(b *testing.B) {
	o := Options{Scale: 0.25, Seed: 1}.norm()
	b.ReportAllocs()
	var simSec, events float64
	for i := 0; i < b.N; i++ {
		tp := o.leafSpine()
		specs := pureIncastSpecs(tp, o.Seed)
		res := Run(RunConfig{
			Topo: tp, Scheme: WithFloodgate(o, DCQCN(o), baseBDPOf(tp)),
			Specs: specs, Duration: 2 * units.Millisecond,
			Seed: o.Seed, Opt: o,
		})
		if res.Completed != res.Total {
			b.Fatalf("flows incomplete: %d/%d", res.Completed, res.Total)
		}
		simSec += res.Net.Eng.Now().Seconds()
		events += float64(res.Net.Eng.Processed)
	}
	wall := b.Elapsed().Seconds()
	b.ReportMetric(simSec/wall, "simsec/wallsec")
	b.ReportMetric(events/wall, "events/s")
}

// BenchmarkForensicsOff is the zero-overhead guard for the forensics
// hooks: the identical workload to BenchmarkRunIncast, run with
// forensics explicitly disabled (Config.Forensics nil — every hook is
// one nil-check). benchjson's compare mode pairs it with
// BenchmarkRunIncast and fails if their allocs/op diverge, so a change
// that makes a disabled hook allocate (or quietly turns forensics on
// in the base path) is caught by `make bench-compare` even though the
// absolute numbers drift with the hardware.
func BenchmarkForensicsOff(b *testing.B) {
	o := Options{Scale: 0.25, Seed: 1}.norm()
	o.Obs.Forensics = false // the disabled-hook path under test
	b.ReportAllocs()
	var simSec, events float64
	for i := 0; i < b.N; i++ {
		tp := o.leafSpine()
		specs := pureIncastSpecs(tp, o.Seed)
		res := Run(RunConfig{
			Topo: tp, Scheme: WithFloodgate(o, DCQCN(o), baseBDPOf(tp)),
			Specs: specs, Duration: 2 * units.Millisecond,
			Seed: o.Seed, Opt: o,
		})
		if res.Completed != res.Total {
			b.Fatalf("flows incomplete: %d/%d", res.Completed, res.Total)
		}
		if res.Forensics != nil {
			b.Fatal("forensics report built with forensics off")
		}
		simSec += res.Net.Eng.Now().Seconds()
		events += float64(res.Net.Eng.Processed)
	}
	wall := b.Elapsed().Seconds()
	b.ReportMetric(simSec/wall, "simsec/wallsec")
	b.ReportMetric(events/wall, "events/s")
}

// BenchmarkRunFig2Row executes one row of the Fig 2 table (WebServer
// incast-mix in the PFC-storm regime under plain DCQCN) — the mixed
// workload whose Poisson background keeps the event queue deep and
// irregular, complementing BenchmarkRunIncast's synchronized burst.
func BenchmarkRunFig2Row(b *testing.B) {
	prev := windowOverride
	windowOverride = fullIncastMixDuration / 8
	defer func() { windowOverride = prev }()
	o := Options{Scale: 0.25, Seed: 1}.norm()
	b.ReportAllocs()
	var simSec, events float64
	for i := 0; i < b.N; i++ {
		res := runIncastMixStress(o, workload.WebServer, DCQCN(o))
		if res.Completed == 0 {
			b.Fatal("no flows completed")
		}
		simSec += res.Net.Eng.Now().Seconds()
		events += float64(res.Net.Eng.Processed)
	}
	wall := b.Elapsed().Seconds()
	b.ReportMetric(simSec/wall, "simsec/wallsec")
	b.ReportMetric(events/wall, "events/s")
}

// BenchmarkRunFaulted is the active-fault routing gate: the incast
// macro workload with one of the victim ToR's uplinks down for the
// whole run, so every routed packet takes Network.Route's faulted
// path (downPorts > 0) and packets through the faulted ToR exercise
// the live-subset re-hash. benchjson's compare mode pins allocs/op,
// so a live-path selection that starts materializing port subsets
// fails `make bench-compare` — and the per-node down-count fast path
// keeps the unaffected majority of nodes at plain-ECMP cost.
func BenchmarkRunFaulted(b *testing.B) {
	o := Options{Scale: 0.25, Seed: 1}.norm()
	b.ReportAllocs()
	var simSec, events float64
	for i := 0; i < b.N; i++ {
		tp := o.leafSpine()
		specs := pureIncastSpecs(tp, o.Seed)
		res := Run(RunConfig{
			Topo: tp, Scheme: WithFloodgate(o, DCQCN(o), baseBDPOf(tp)),
			Specs: specs, Duration: 2 * units.Millisecond,
			Seed: o.Seed, Opt: o,
			Faults: &fault.Plan{Events: []fault.Event{
				{At: 0, Kind: fault.LinkDown, Link: dstUplink(tp)},
			}},
		})
		// The fabric runs at reduced capacity for the whole window, so
		// (deterministically) only part of the burst completes; the
		// assertion is that traffic kept flowing around the dead link.
		if res.Completed == 0 {
			b.Fatalf("no flows completed around the downed uplink (0/%d)", res.Total)
		}
		simSec += res.Net.Eng.Now().Seconds()
		events += float64(res.Net.Eng.Processed)
	}
	wall := b.Elapsed().Seconds()
	b.ReportMetric(simSec/wall, "simsec/wallsec")
	b.ReportMetric(events/wall, "events/s")
}

// BenchmarkRouteMemory prices the two router implementations at the
// k=16 fat tree (1,024 hosts — the largest size where the dense
// table is still comfortably buildable): ns/op is the build cost and
// the custom metrics record resident route memory. benchjson's
// route-memory pair rule asserts structural route_bytes stays at
// least 100x below dense, so the compression claim is re-measured on
// every `make bench-compare`, not just asserted once.
func BenchmarkRouteMemory(b *testing.B) {
	for _, kind := range []string{"structural", "dense"} {
		b.Run(kind, func(b *testing.B) {
			var routeBytes int64
			hosts := 1
			for i := 0; i < b.N; i++ {
				tp := topo.FatTree16().Build() // freezes structural
				hosts = tp.NumHosts()
				if kind == "dense" {
					routeBytes = topo.NewDenseRouter(tp).Bytes()
				} else {
					routeBytes = tp.RouteBytes()
				}
			}
			b.ReportMetric(float64(routeBytes), "route_bytes/topo")
			b.ReportMetric(float64(routeBytes)/float64(hosts), "route_bytes/host")
		})
	}
}

// BenchmarkRunScaleIncast executes the scaleincast run end to end on
// the 102,400-host Clos — build, route, 256-way burst, drain — in
// one process per iteration. Beside events/s it records the live
// heap (forced GC, then an explicit snapshot, outside the timer with
// the run's network still referenced) in total and per host: the
// memory-budget figures the scale work is accountable to across PRs.
// benchjson fails the run when heap_bytes/host exceeds its bound.
func BenchmarkRunScaleIncast(b *testing.B) {
	o := Options{Scale: 0.25, Seed: 1, Topo: "clos100k"}.norm()
	b.ReportAllocs()
	var simSec, events, heap, hosts float64
	for i := 0; i < b.N; i++ {
		tp, _, err := o.scaleTopo("clos100k")
		if err != nil {
			b.Fatal(err)
		}
		specs := scaleIncastSpecs(tp, o.Seed, scaleIncastDegree)
		res := Run(RunConfig{
			Topo: tp, Scheme: WithFloodgate(o, DCQCN(o), baseBDPOf(tp)),
			Specs: specs, Duration: fullScaleIncastDuration,
			Seed: o.Seed, Opt: o,
			BufferSize: units.ByteSize(len(specs)) * 35 * mtu,
		})
		if res.Completed != res.Total {
			b.Fatalf("flows incomplete at 100k hosts: %d/%d", res.Completed, res.Total)
		}
		simSec += res.Net.Eng.Now().Seconds()
		events += float64(res.Net.Eng.Processed)
		b.StopTimer()
		runtime.GC()
		heap = float64(res.Net.SnapshotMemStats())
		hosts = float64(tp.NumHosts())
		b.StartTimer()
	}
	wall := b.Elapsed().Seconds()
	b.ReportMetric(simSec/wall, "simsec/wallsec")
	b.ReportMetric(events/wall, "events/s")
	b.ReportMetric(heap, "heap_bytes/run")
	b.ReportMetric(heap/hosts, "heap_bytes/host")
}

// BenchmarkRunClosedLoop executes one sloincast cell end to end: the
// open-loop PFC-storm incast with the closed-loop partition-aggregate
// plane overlaid (per-request deadline timers, jittered retries, and
// breaker bookkeeping riding the engine) through DCQCN+Floodgate. This
// is the app plane's allocation gate: benchjson tracks its allocs/op
// across PRs, so a timer path that starts capturing shows up in
// `make bench-compare`.
func BenchmarkRunClosedLoop(b *testing.B) {
	o := Options{Scale: 0.25, Seed: 1}.norm()
	b.ReportAllocs()
	var simSec, events float64
	for i := 0; i < b.N; i++ {
		c := sloCell{"8", 8, "tight(1.5x)", 1.5,
			WithFloodgate(o, DCQCN(o), baseBDPOf(o.leafSpine())),
			app.ExpBackoff{Base: o.stretch(25 * units.Microsecond)}}
		res := sloRun(o, c)
		if res.SLO == nil || res.SLO.Completed == 0 {
			b.Fatal("closed loop resolved nothing")
		}
		simSec += res.Net.Eng.Now().Seconds()
		events += float64(res.Net.Eng.Processed)
	}
	wall := b.Elapsed().Seconds()
	b.ReportMetric(simSec/wall, "simsec/wallsec")
	b.ReportMetric(events/wall, "events/s")
}
