package exp

import (
	"math"
	"strings"
	"testing"

	"floodgate/internal/fault"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// faultTestFabric is a tiny 3-ToR/2-spine leaf-spine at full rate:
// small enough that lossy runs settle in milliseconds of sim time,
// multi-path enough that a downed uplink leaves an alternate route.
func faultTestFabric() *topo.Topology {
	c := topo.DefaultLeafSpine()
	c.ToRs = 3
	c.HostsPerToR = 4
	c.Spines = 2
	return c.Build()
}

// faultTestSpecs is the pure incast scaled 10x, so the run (bottleneck
// drain ~220us) comfortably outlasts every fault schedule below.
func faultTestSpecs(tp *topo.Topology, seed uint64) []workload.FlowSpec {
	specs := pureIncastSpecs(tp, seed)
	for i := range specs {
		specs[i].Size *= 10
	}
	return specs
}

// faultTestRun builds the standard recovery scenario: pure incast into
// the last host with the given fault knobs, DCQCN+Floodgate.
func faultTestRun(t *testing.T, mut func(*RunConfig)) *RunResult {
	t.Helper()
	o := Options{Scale: 1, Seed: 7}.norm()
	tp := faultTestFabric()
	rc := RunConfig{
		Topo:     tp,
		Scheme:   WithFloodgate(o, DCQCN(o), baseBDPOf(tp)),
		Specs:    faultTestSpecs(tp, o.Seed),
		Duration: 100 * units.Microsecond,
		Drain:    400 * units.Millisecond,
		Seed:     o.Seed,
		Opt:      o,
	}
	mut(&rc)
	return Run(rc)
}

// settle drains residual in-flight traffic (retransmissions, credits,
// SYN probes) after the run stopped, bounded so a busted timer loop
// fails the test instead of hanging it.
func settle(res *RunResult) {
	res.Net.Eng.Run(res.Net.Eng.Now().Add(200 * units.Millisecond))
}

// assertZeroResidue checks every Floodgate window healed: no un-credited
// bytes and no parked VOQ packets anywhere in the fabric.
func assertZeroResidue(t *testing.T, res *RunResult) {
	t.Helper()
	ss := res.Net.StallSnapshot()
	if ss.WindowDeficit != 0 || ss.ParkedBytes != 0 || ss.ExhaustedWindows != 0 {
		t.Fatalf("window residue after settle: deficit=%v parked=%v exhausted=%d",
			ss.WindowDeficit, ss.ParkedBytes, ss.ExhaustedWindows)
	}
}

// TestFloodgateRecoversUnderCombinedLoss runs the incast with 20%
// uniform loss on BOTH the data and the credit plane: go-back-N plus
// PSN/switchSYN recovery must still complete every flow, and after the
// wires drain every switch window must settle to zero residue.
func TestFloodgateRecoversUnderCombinedLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	res := faultTestRun(t, func(rc *RunConfig) {
		rc.LossRate = 0.2
		rc.CreditLossRate = 0.2
	})
	if res.Completed != res.Total {
		t.Fatalf("completed %d/%d under 20%% combined loss", res.Completed, res.Total)
	}
	if res.Stalled {
		t.Fatalf("run flagged stalled: %v", res.Diagnosis)
	}
	settle(res)
	assertZeroResidue(t, res)
}

// TestFloodgateRecoversAcrossLinkFlaps flaps the destination ToR's
// uplink repeatedly mid-incast. ECMP re-hashes affected pairs onto the
// surviving spine while the link is down; frames (including credits)
// caught on the dying link are recovered by PSN accounting. The run
// must complete without a stall and settle with zero window residue.
func TestFloodgateRecoversAcrossLinkFlaps(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	var tp *topo.Topology
	res := faultTestRun(t, func(rc *RunConfig) {
		tp = rc.Topo
		rc.Faults = &fault.Plan{Events: fault.Flap(dstUplink(tp),
			units.Time(20*units.Microsecond), 30*units.Microsecond, 60*units.Microsecond, 3)}
	})
	if res.Completed != res.Total {
		t.Fatalf("completed %d/%d across link flaps", res.Completed, res.Total)
	}
	if res.Stalled {
		t.Fatalf("run flagged stalled: %v", res.Diagnosis)
	}
	if fs := res.Net.FaultStats(); fs.LinkEvents != 6 {
		t.Fatalf("expected 6 link events (3 flaps), got %d", fs.LinkEvents)
	}
	settle(res)
	assertZeroResidue(t, res)
}

// TestFloodgateResyncsAfterSwitchRestart restarts a spine mid-incast.
// The spine loses every window, VOQ and PSN channel; downstream ToRs
// must detect the epoch change and rebase (counted as resyncs), and
// upstream ToR windows stranded by the wiped credit state must be
// rescued by the switchSYN escape hatch. All flows complete.
func TestFloodgateResyncsAfterSwitchRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	res := faultTestRun(t, func(rc *RunConfig) {
		spine := dstUplink(rc.Topo).B
		rc.Faults = &fault.Plan{Events: []fault.Event{
			{At: units.Time(50 * units.Microsecond), Kind: fault.SwitchRestart, Node: spine},
		}}
	})
	if res.Completed != res.Total {
		t.Fatalf("completed %d/%d after switch restart", res.Completed, res.Total)
	}
	if res.Stalled {
		t.Fatalf("run flagged stalled: %v", res.Diagnosis)
	}
	fs := res.Net.FaultStats()
	if fs.Restarts != 1 {
		t.Fatalf("expected 1 restart, got %d", fs.Restarts)
	}
	if fs.Resyncs == 0 {
		t.Fatal("no epoch resyncs recorded: restart detection did not engage")
	}
	settle(res)
	assertZeroResidue(t, res)
}

// TestWatchdogDiagnosesWedgedRun severs the incast destination's host
// link permanently: nothing can ever be delivered, so the progress
// watchdog must terminate the run early with a structured diagnosis
// instead of burning the full time bound.
func TestWatchdogDiagnosesWedgedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	res := faultTestRun(t, func(rc *RunConfig) {
		dst := rc.Topo.Hosts[len(rc.Topo.Hosts)-1]
		tor := rc.Topo.Node(dst).Ports[0].Peer
		rc.Faults = &fault.Plan{Events: []fault.Event{
			{At: 0, Kind: fault.LinkDown, Link: fault.Link{A: dst, B: tor}},
		}}
		rc.StallHorizon = 500 * units.Microsecond
	})
	if !res.Stalled || res.Diagnosis == nil {
		t.Fatal("wedged run did not trip the watchdog")
	}
	d := res.Diagnosis
	// The trip must come between one and two horizons after delivery
	// last advanced (here: never), far before Duration+Drain.
	if d.At > units.Time(2*units.Millisecond) {
		t.Fatalf("watchdog tripped too late: %v", d.At)
	}
	if d.LinksDown != 1 {
		t.Fatalf("diagnosis reports %d links down, want 1", d.LinksDown)
	}
	if d.IncompleteFlows != res.Total || res.Completed != 0 {
		t.Fatalf("diagnosis flows=%d completed=%d, want all %d incomplete",
			d.IncompleteFlows, res.Completed, res.Total)
	}
	if d.DeliveredBytes != 0 {
		t.Fatalf("severed destination still delivered %v", d.DeliveredBytes)
	}
	if s := d.String(); !strings.Contains(s, "stalled at") || !strings.Contains(s, "links down: 1") {
		t.Fatalf("diagnosis string not descriptive: %q", s)
	}
}

// TestRunConfigValidation covers the reject-early satellite: broken
// configs produce descriptive errors instead of misrunning.
func TestRunConfigValidation(t *testing.T) {
	tp := faultTestFabric()
	ok := RunConfig{Topo: tp, Duration: units.Millisecond}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*RunConfig)
		want string
	}{
		{"nil topo", func(rc *RunConfig) { rc.Topo = nil }, "Topo"},
		{"zero duration", func(rc *RunConfig) { rc.Duration = 0 }, "Duration"},
		{"negative duration", func(rc *RunConfig) { rc.Duration = -units.Millisecond }, "Duration"},
		{"negative drain", func(rc *RunConfig) { rc.Drain = -1 }, "Drain"},
		{"negative loss", func(rc *RunConfig) { rc.LossRate = -0.1 }, "LossRate"},
		{"loss above one", func(rc *RunConfig) { rc.LossRate = 1.5 }, "LossRate"},
		{"credit loss above one", func(rc *RunConfig) { rc.CreditLossRate = 2 }, "CreditLossRate"},
		{"NaN loss", func(rc *RunConfig) { rc.LossRate = math.NaN() }, "LossRate"},
		{"NaN credit loss", func(rc *RunConfig) { rc.CreditLossRate = math.NaN() }, "CreditLossRate"},
		{"NaN burst probability", func(rc *RunConfig) {
			rc.Faults = &fault.Plan{Burst: &fault.GilbertElliott{PGoodBad: math.NaN()}}
		}, "NaN"},
		{"negative horizon", func(rc *RunConfig) { rc.StallHorizon = -1 }, "StallHorizon"},
		{"bad fault plan", func(rc *RunConfig) {
			rc.Faults = &fault.Plan{Events: []fault.Event{{Kind: fault.LinkDown}}}
		}, "degenerate"},
	}
	for _, c := range cases {
		rc := ok
		c.mut(&rc)
		err := rc.Validate()
		if err == nil {
			t.Fatalf("%s: Validate accepted a broken config", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestShardValidation: the deprecated Options.Shards field accepts
// only 0 and 1 — the sharded executor was removed — and any other
// value fails validation with an error that says so.
func TestShardValidation(t *testing.T) {
	rc := RunConfig{Topo: faultTestFabric(), Duration: units.Millisecond}
	for _, k := range []int{0, 1} {
		rc.Opt.Shards = k
		if err := rc.Validate(); err != nil {
			t.Fatalf("Shards=%d rejected: %v", k, err)
		}
	}
	for _, k := range []int{-1, 2, 4} {
		rc.Opt.Shards = k
		err := rc.Validate()
		if err == nil || !strings.Contains(err.Error(), "removed") {
			t.Fatalf("Shards=%d: Validate = %v, want an error saying the executor was removed", k, err)
		}
	}
}

// TestRunPanicsWithRunError checks Run wraps failures into *RunError
// carrying the config content hash (what the executor recovers).
func TestRunPanicsWithRunError(t *testing.T) {
	rc := RunConfig{Duration: units.Millisecond} // nil topo
	defer func() {
		re, ok := recover().(*RunError)
		if !ok {
			t.Fatal("Run did not panic with *RunError")
		}
		if re.ConfigHash != obsLabel(rc) {
			t.Fatalf("RunError hash %q != config hash %q", re.ConfigHash, obsLabel(rc))
		}
		if !strings.Contains(re.Error(), "Topo") {
			t.Fatalf("RunError message not descriptive: %q", re.Error())
		}
	}()
	Run(rc)
}

// TestRunJobsIsolatesPanicsDeterministically checks the worker-pool
// panic contract: panicking jobs never crash worker goroutines, and the
// panic that re-raises on the caller is the lowest submission index —
// exactly what the serial path would raise first — at any parallelism.
func TestRunJobsIsolatesPanicsDeterministically(t *testing.T) {
	for _, par := range []int{1, 4} {
		o := Options{Parallelism: par}.norm()
		got := func() (v any) {
			defer func() { v = recover() }()
			runJobs(o, 4, func(i int) int {
				if i >= 2 {
					panic(i)
				}
				return i
			})
			return nil
		}()
		if got != 2 {
			t.Fatalf("parallelism %d: recovered %v, want panic from job 2", par, got)
		}
	}
}

// TestFaultedRunsBitIdentical reruns one storm scenario (flaps + spine
// restart + burst loss) serially and through the worker pool: the fault
// plane draws only from per-link PRNGs seeded by the run seed, so every
// replica must agree byte-for-byte on delivery, drops and fault counts.
func TestFaultedRunsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	o := Options{Scale: 1, Seed: 7}.norm()
	mk := func() RunConfig {
		tp := faultTestFabric()
		l := dstUplink(tp)
		evs := fault.Flap(l, units.Time(20*units.Microsecond), 20*units.Microsecond, 80*units.Microsecond, 2)
		evs = append(evs, fault.Event{At: units.Time(150 * units.Microsecond), Kind: fault.SwitchRestart, Node: l.B})
		return RunConfig{
			Topo:     tp,
			Scheme:   WithFloodgate(o, DCQCN(o), baseBDPOf(tp)),
			Specs:    faultTestSpecs(tp, o.Seed),
			Duration: 200 * units.Microsecond,
			Drain:    400 * units.Millisecond,
			Seed:     o.Seed,
			Opt:      o,
			Faults:   &fault.Plan{Events: evs, Burst: fault.BurstWithMeanLoss(0.05)},
		}
	}
	serial := mk()
	serial.Opt.Parallelism = 1
	want := Run(serial)
	rcs := make([]RunConfig, 4)
	for i := range rcs {
		rcs[i] = mk()
		rcs[i].Opt.Parallelism = 4
	}
	for i, got := range RunMany(rcs) {
		if got.Completed != want.Completed || got.Total != want.Total {
			t.Fatalf("replica %d: completion %d/%d != serial %d/%d",
				i, got.Completed, got.Total, want.Completed, want.Total)
		}
		if got.Net.DeliveredBytes() != want.Net.DeliveredBytes() {
			t.Fatalf("replica %d: delivered %v != serial %v",
				i, got.Net.DeliveredBytes(), want.Net.DeliveredBytes())
		}
		if got.Stats.Drops != want.Stats.Drops {
			t.Fatalf("replica %d: drops %d != serial %d", i, got.Stats.Drops, want.Stats.Drops)
		}
		if got.Net.FaultStats() != want.Net.FaultStats() {
			t.Fatalf("replica %d: fault stats %+v != serial %+v",
				i, got.Net.FaultStats(), want.Net.FaultStats())
		}
	}
}
