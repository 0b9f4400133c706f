package exp

import (
	"strings"
	"testing"

	"floodgate/internal/forensics"
	"floodgate/internal/units"
)

// forensicsIncastRun executes the pure-incast stress (every cross-rack
// host to one victim at t=0) with forensics recording on, under
// DCQCN+Floodgate or plain DCQCN.
func forensicsIncastRun(t *testing.T, o Options, fg bool) *RunResult {
	t.Helper()
	o = o.norm()
	o.Obs.Forensics = true
	tp := o.leafSpine()
	s := DCQCN(o)
	if fg {
		s = WithFloodgate(o, DCQCN(o), baseBDPOf(tp))
	}
	res := Run(RunConfig{
		Topo: tp, Scheme: s, Specs: pureIncastSpecs(tp, o.Seed),
		Duration: 2 * units.Millisecond, Seed: o.Seed, Opt: o,
	})
	if res.Completed != res.Total {
		t.Fatalf("flows incomplete: %d/%d", res.Completed, res.Total)
	}
	if res.Forensics == nil {
		t.Fatal("no forensics report despite Obs.Forensics")
	}
	return res
}

// TestForensicsBudgetTilesFCT is the attribution soundness check: in a
// loss-free run every completed flow's wait-state components must sum
// exactly to its FCT (CompWire is the non-negative residual, so any
// over-attribution breaks the equality), and the Floodgate incast must
// surface the mechanism itself — parked time, credit waits and at
// least one window-exhaustion episode.
func TestForensicsBudgetTilesFCT(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	res := forensicsIncastRun(t, Options{Scale: 0.1, Seed: 1}, true)
	rep := res.Forensics
	done := 0
	var sawVOQ, sawQueue bool
	for i := range rep.Flows {
		fb := &rep.Flows[i]
		if !fb.Done {
			continue
		}
		done++
		if fb.FCT <= 0 {
			t.Fatalf("flow %d: non-positive FCT %v", fb.ID, fb.FCT)
		}
		var sum units.Duration
		for c := forensics.Comp(0); c < forensics.NumComps; c++ {
			if fb.Comp[c] < 0 {
				t.Fatalf("flow %d: negative %s component %v", fb.ID, c, fb.Comp[c])
			}
			sum += fb.Comp[c]
		}
		if sum != fb.FCT {
			t.Fatalf("flow %d: components sum to %v, FCT is %v (over-attribution of %v)",
				fb.ID, sum, fb.FCT, sum-fb.FCT)
		}
		if fb.Comp[forensics.CompVOQ] > 0 || fb.Comp[forensics.CompCredit] > 0 {
			sawVOQ = true
		}
		if fb.Comp[forensics.CompQueue] > 0 {
			sawQueue = true
		}
	}
	if done == 0 {
		t.Fatal("no completed flows in the budget")
	}
	if !sawQueue {
		t.Error("incast produced no queueing attribution")
	}
	if !sawVOQ {
		t.Error("Floodgate incast produced no VOQ/credit attribution")
	}
	if rep.TotalParked <= 0 {
		t.Error("Floodgate incast parked nothing")
	}
	if len(rep.Episodes) == 0 {
		t.Fatal("no window-exhaustion episodes detected under Floodgate incast")
	}
	for i := range rep.Episodes {
		ep := &rep.Episodes[i]
		if ep.Open() {
			t.Errorf("episode %d left open at run end (switch %d dst %d)", i, ep.Switch, ep.Dst)
			continue
		}
		if ep.End < ep.Start {
			t.Errorf("episode %d ends before it starts: [%v, %v]", i, ep.Start, ep.End)
		}
		if ep.PeakParked <= 0 {
			t.Errorf("episode %d has no parked bytes", i)
		}
		if len(ep.Victims) == 0 {
			t.Errorf("episode %d has no victim flows", i)
		}
	}
	if !strings.Contains(rep.Summary(), "p99 flow") {
		t.Errorf("summary missing the p99 breakdown:\n%s", rep.Summary())
	}
}

// TestForensicsBaselineNoParking pins the negative control: without a
// flow-control module nothing can be parked, so the DCQCN baseline
// must report zero parked time, zero episodes and zero VOQ/credit
// attribution on every flow.
func TestForensicsBaselineNoParking(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	res := forensicsIncastRun(t, Options{Scale: 0.1, Seed: 1}, false)
	rep := res.Forensics
	if rep.TotalParked != 0 {
		t.Errorf("baseline parked %v, want 0", rep.TotalParked)
	}
	if len(rep.Episodes) != 0 {
		t.Errorf("baseline detected %d episodes, want 0", len(rep.Episodes))
	}
	for i := range rep.Flows {
		fb := &rep.Flows[i]
		if fb.Comp[forensics.CompVOQ] != 0 || fb.Comp[forensics.CompCredit] != 0 || fb.Parked != 0 {
			t.Fatalf("flow %d: VOQ/credit attribution without flow control: voq=%v credit=%v parked=%v",
				fb.ID, fb.Comp[forensics.CompVOQ], fb.Comp[forensics.CompCredit], fb.Parked)
		}
	}
}

// TestForensicsNoSimImpact pins the zero-observer-effect contract at
// the run level: forensics on and off must execute the identical
// simulation (same completions, delivered bytes, executed events and
// final clock).
func TestForensicsNoSimImpact(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	o := Options{Scale: 0.1, Seed: 1}.norm()
	run := func(forensicsOn bool) *RunResult {
		oo := o
		oo.Obs.Forensics = forensicsOn
		tp := oo.leafSpine()
		return Run(RunConfig{
			Topo: tp, Scheme: WithFloodgate(oo, DCQCN(oo), baseBDPOf(tp)),
			Specs:    pureIncastSpecs(tp, oo.Seed),
			Duration: 2 * units.Millisecond, Seed: oo.Seed, Opt: oo,
		})
	}
	off, on := run(false), run(true)
	if off.Forensics != nil || on.Forensics == nil {
		t.Fatalf("report presence wrong: off=%v on=%v", off.Forensics != nil, on.Forensics != nil)
	}
	if off.Completed != on.Completed || off.Total != on.Total {
		t.Errorf("completions differ: %d/%d vs %d/%d", off.Completed, off.Total, on.Completed, on.Total)
	}
	if off.DeliveredBytes() != on.DeliveredBytes() {
		t.Errorf("delivered bytes differ: %v vs %v", off.DeliveredBytes(), on.DeliveredBytes())
	}
	if off.Processed() != on.Processed() {
		t.Errorf("executed events differ: %d vs %d", off.Processed(), on.Processed())
	}
	if off.Net.Eng.Now() != on.Net.Eng.Now() {
		t.Errorf("final clocks differ: %v vs %v", off.Net.Eng.Now(), on.Net.Eng.Now())
	}
}

// TestForensicsParallelDeterminism is the load-bearing determinism
// gate for forensics: the NDJSON report (and the human summary) of the
// Floodgate incast must be bit-identical between a serial run and
// replicas executed concurrently on a 4-worker pool.
func TestForensicsParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	render := func(res *RunResult) (string, string) {
		var b strings.Builder
		if err := res.Forensics.WriteNDJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String(), res.Forensics.Summary()
	}
	want := forensicsIncastRun(t, Options{Scale: 0.1, Seed: 1, Parallelism: 1}, true)
	wantNDJSON, wantSummary := render(want)
	if !strings.Contains(wantNDJSON, `"type":"episode"`) {
		t.Fatalf("reference NDJSON has no episodes:\n%s", wantNDJSON)
	}
	o := Options{Scale: 0.1, Seed: 1, Parallelism: 4}.norm()
	o.Obs.Forensics = true
	tp := o.leafSpine()
	rc := RunConfig{
		Topo: tp, Scheme: WithFloodgate(o, DCQCN(o), baseBDPOf(tp)), Specs: pureIncastSpecs(tp, o.Seed),
		Duration: 2 * units.Millisecond, Seed: o.Seed, Opt: o,
	}
	for i, res := range RunMany([]RunConfig{rc, rc}) {
		got, sum := render(res)
		if got != wantNDJSON {
			t.Errorf("replica %d: NDJSON differs from serial (%d vs %d bytes)", i, len(got), len(wantNDJSON))
		}
		if sum != wantSummary {
			t.Errorf("replica %d: summary differs from serial:\n%s\nvs\n%s", i, sum, wantSummary)
		}
	}
}

// TestForensicsNoTableImpact pins the table contract at the experiment
// level: with forensics on, fig2 appends attribution tables, but the
// base tables must remain byte-identical.
func TestForensicsNoTableImpact(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	prev := windowOverride
	windowOverride = fullIncastMixDuration / 8
	defer func() { windowOverride = prev }()
	o := Options{Scale: 0.1, Seed: 1, Parallelism: 1}
	plain := Fig2(o)
	oF := o
	oF.Obs.Forensics = true
	withF := Fig2(oF)
	if len(withF) != len(plain)+2 {
		t.Fatalf("fig2 tables = %d with forensics, want %d (base %d + one attribution per scheme)",
			len(withF), len(plain)+2, len(plain))
	}
	var base []Table
	for _, tb := range withF {
		if !strings.Contains(tb.Title, "FCT time budget") {
			base = append(base, tb)
		}
	}
	if TablesHash(plain) != TablesHash(base) {
		t.Fatalf("base tables differ with forensics on:\n--- off ---\n%s\n--- on ---\n%s",
			renderAll(plain), renderAll(base))
	}
	for _, tb := range withF {
		if strings.Contains(tb.Title, "FCT time budget") && len(tb.Rows) != int(forensics.NumComps) {
			t.Errorf("attribution table %q has %d rows, want %d", tb.Title, len(tb.Rows), forensics.NumComps)
		}
	}
}
