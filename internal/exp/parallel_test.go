package exp

import (
	"reflect"
	"testing"

	"floodgate/internal/topo"
	"floodgate/internal/workload"
)

// renderAll flattens tables to one string for byte-level comparison.
func renderAll(tables []Table) string {
	s := ""
	for _, t := range tables {
		s += t.String() + "\n"
	}
	return s
}

// TestParallelDeterminism is the executor's core guarantee: a
// representative experiment produces byte-identical tables serially
// and with a 4-worker pool. fig10 covers 12 independent runs plus a
// cross-run reduction (the "vs plain" ratio column).
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	windowOverride = fullIncastMixDuration / 8
	defer func() { windowOverride = 0 }()
	serial := Options{Scale: 0.1, Seed: 1, Parallelism: 1}
	parallel := Options{Scale: 0.1, Seed: 1, Parallelism: 4}
	want := renderAll(Fig10(serial))
	got := renderAll(Fig10(parallel))
	if want != got {
		t.Fatalf("parallel output diverges from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
}

// TestFig2Fig6ParallelDeterminism: the motivating incast sweep (fig2)
// and the full mixed-workload comparison (fig6) render byte-identical
// tables serially and through a 4-worker pool.
func TestFig2Fig6ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	windowOverride = fullIncastMixDuration / 8
	defer func() { windowOverride = 0 }()
	for _, fig := range []struct {
		name string
		run  func(Options) []Table
	}{
		{"fig2", Fig2},
		{"fig6", Fig6},
	} {
		want := renderAll(fig.run(Options{Scale: 0.1, Seed: 1, Parallelism: 1}))
		if got := renderAll(fig.run(Options{Scale: 0.1, Seed: 1, Parallelism: 4})); got != want {
			t.Fatalf("%s: 4-worker output diverges from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				fig.name, want, got)
		}
	}
}

// TestFaultMatrixParallelDeterminism extends the guarantee to the
// fault plane: the faultmatrix experiment — link flaps, switch
// restarts and Gilbert–Elliott burst loss — renders byte-identical
// tables serially and through a 4-worker pool.
func TestFaultMatrixParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	windowOverride = fullIncastMixDuration / 8
	defer func() { windowOverride = 0 }()
	want := renderAll(FaultMatrix(Options{Scale: 0.1, Seed: 1, Parallelism: 1}))
	if got := renderAll(FaultMatrix(Options{Scale: 0.1, Seed: 1, Parallelism: 4})); got != want {
		t.Fatalf("faultmatrix: 4-worker output diverges from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			want, got)
	}
}

// TestRunManyMatchesSerial checks RunMany against a loop of Run calls
// on the same configs: same completion counts, same buffer peaks, and
// results indexed by submission order.
func TestRunManyMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	o := Options{Scale: 0.1, Seed: 1, Parallelism: 4}.norm()
	dur := fullIncastMixDuration / 8
	var rcs []RunConfig
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		tp := o.leafSpine()
		specs := incastMixSpecs(tp, workload.WebServer, dur, seed, incastDegree(tp))
		rcs = append(rcs, RunConfig{
			Topo: tp, Scheme: WithFloodgate(o, DCQCN(o), baseBDPOf(tp)),
			Specs: specs, Duration: dur, Seed: seed, Opt: o,
		})
	}
	got := RunMany(rcs)
	if len(got) != len(rcs) {
		t.Fatalf("RunMany returned %d results for %d configs", len(got), len(rcs))
	}
	for i, rc := range rcs {
		want := Run(rc)
		if got[i].Completed != want.Completed || got[i].Total != want.Total {
			t.Fatalf("run %d: completion %d/%d != serial %d/%d",
				i, got[i].Completed, got[i].Total, want.Completed, want.Total)
		}
		if got[i].Stats.MaxSwitchBuffer() != want.Stats.MaxSwitchBuffer() {
			t.Fatalf("run %d: max buffer %v != serial %v",
				i, got[i].Stats.MaxSwitchBuffer(), want.Stats.MaxSwitchBuffer())
		}
	}
}

// TestRunExperimentsOrder checks that overlapped experiments emit in
// submission order with the same tables as direct calls.
func TestRunExperimentsOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	windowOverride = fullIncastMixDuration / 8
	defer func() { windowOverride = 0 }()
	o := Options{Scale: 0.1, Seed: 1, Parallelism: 4}
	ids := []string{"fig7", "fig9", "fig22", "nope"}
	var gotIDs []string
	var rendered []string
	var errs []error
	RunExperiments(ids, o, func(id string, tables []Table, err error) {
		gotIDs = append(gotIDs, id)
		rendered = append(rendered, renderAll(tables))
		errs = append(errs, err)
	})
	if !reflect.DeepEqual(gotIDs, ids) {
		t.Fatalf("emit order %v, want %v", gotIDs, ids)
	}
	if errs[0] != nil || errs[1] != nil || errs[2] != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if errs[3] == nil {
		t.Fatal("unknown experiment id did not error")
	}
	for i, id := range ids[:3] {
		e, _ := Lookup(id)
		if want := renderAll(e.Run(o)); want != rendered[i] {
			t.Fatalf("%s: overlapped output differs from direct call", id)
		}
	}
}

// TestSharedNothing pins the audit in parallel.go: the values that
// concurrent runs share must be observably immutable across a run.
func TestSharedNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	o := Options{Scale: 0.1, Seed: 1}.norm()

	// workload.CDF: package-level distributions must not change when
	// sampled (Sample reads Pts only).
	cdfBefore := make([]CDFSnapshot, len(workload.Workloads))
	for i, c := range workload.Workloads {
		cdfBefore[i] = snapshotCDF(c)
	}

	// topo.Topology: ports and routes must be identical before and
	// after a simulation uses the topology.
	tp := o.leafSpine()
	portsBefore := snapshotPorts(tp)

	dur := fullIncastMixDuration / 8
	specs := incastMixSpecs(tp, workload.WebServer, dur, o.Seed, incastDegree(tp))
	// Scheme factory closures mint private state per run: two runs from
	// the same Scheme value must not interfere (same results as two
	// schemes built independently).
	s := WithFloodgate(o, DCQCN(o), baseBDPOf(tp))
	r1 := Run(RunConfig{Topo: tp, Scheme: s, Specs: specs, Duration: dur, Seed: o.Seed, Opt: o})
	r2 := Run(RunConfig{Topo: tp, Scheme: s, Specs: specs, Duration: dur, Seed: o.Seed, Opt: o})
	if r1.Completed != r2.Completed || r1.Stats.MaxSwitchBuffer() != r2.Stats.MaxSwitchBuffer() {
		t.Fatal("reusing one Scheme value across runs changed results: factory closures leak state")
	}

	for i, c := range workload.Workloads {
		if !reflect.DeepEqual(cdfBefore[i], snapshotCDF(c)) {
			t.Fatalf("workload CDF %s mutated by a run", c.Name)
		}
	}
	if !reflect.DeepEqual(portsBefore, snapshotPorts(tp)) {
		t.Fatal("topology mutated by a run: ports/routes are not read-only after Build()")
	}
}

// CDFSnapshot captures a CDF's observable state.
type CDFSnapshot struct {
	Name string
	Pts  []workload.CDFPoint
}

func snapshotCDF(c *workload.CDF) CDFSnapshot {
	pts := make([]workload.CDFPoint, len(c.Pts))
	copy(pts, c.Pts)
	return CDFSnapshot{Name: c.Name, Pts: pts}
}

func snapshotPorts(tp *topo.Topology) []topo.Port {
	var out []topo.Port
	for _, n := range tp.Nodes {
		out = append(out, n.Ports...)
	}
	return out
}
