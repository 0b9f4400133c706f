package exp

import (
	"fmt"

	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// The scaleincast experiment: the canonical incast burst on a
// datacenter-sized Clos. Its point is not a new congestion result —
// it is the scale demonstration the structural router buys: a
// 100k-host fabric builds, routes and completes an incast in one
// process, with route memory O(total ports) where the dense tables
// would need hundreds of gigabytes for slice headers alone.

// fullScaleIncastDuration is the paper-scale completion window for
// the burst; the slow-motion model stretches it like every other
// time constant, and windowOverride shrinks it for smoke tests.
const fullScaleIncastDuration = 8 * units.Millisecond

// scaleIncastDegree caps the burst fan-in. Unlike the paper-scale
// figures, the full cross-rack sender set at 100k hosts would be a
// 100k-flow burst — a different experiment (and hours of simulated
// serialization at one NIC); a fixed 256-way incast keeps the burst
// canonical while the fabric scales underneath it.
const scaleIncastDegree = 256

// topoPreset is one named large-fabric builder.
type topoPreset struct {
	name  string
	note  string
	build func(o Options) *topo.Topology
}

// topoPresets lists the -topo fabrics in menu order. Each preset
// fixes its dimensions exactly; Options.Scale only applies the
// slow-motion rate/time model.
var topoPresets = []topoPreset{
	{"clos", "4-pod Clos, 128 hosts (smoke size)", func(o Options) *topo.Topology {
		return buildClos(topo.DefaultClos(), o)
	}},
	{"clos100k", "32-pod Clos, 102,400 hosts", func(o Options) *topo.Topology {
		return buildClos(topo.Clos100k(), o)
	}},
	{"fattree16", "k=16 fat tree, 1,024 hosts", func(o Options) *topo.Topology {
		return buildFatTree(topo.FatTree16(), o)
	}},
	{"fattree32", "k=32 fat tree, 8,192 hosts", func(o Options) *topo.Topology {
		return buildFatTree(topo.FatTree32(), o)
	}},
}

func buildClos(c topo.ClosConfig, o Options) *topo.Topology {
	c.HostRate = o.rate(c.HostRate)
	c.FabricRate = o.rate(c.FabricRate)
	c.Prop = o.stretch(c.Prop)
	return c.Build()
}

func buildFatTree(c topo.FatTreeConfig, o Options) *topo.Topology {
	c.Rate = o.rate(c.Rate)
	c.Prop = o.stretch(c.Prop)
	return c.Build()
}

// TopoPresets returns the preset names in menu order, with one-line
// descriptions (floodsim -topo list).
func TopoPresets() [][2]string {
	out := make([][2]string, len(topoPresets))
	for i, p := range topoPresets {
		out[i] = [2]string{p.name, p.note}
	}
	return out
}

// scaleTopo resolves Options.Topo to a built fabric.
func (o Options) scaleTopo(def string) (*topo.Topology, string, error) {
	name := o.Topo
	if name == "" {
		name = def
	}
	for _, p := range topoPresets {
		if p.name == name {
			return p.build(o), name, nil
		}
	}
	var names []string
	for _, p := range topoPresets {
		names = append(names, p.name)
	}
	return nil, "", fmt.Errorf("exp: unknown topology preset %q (have %v)", name, names)
}

// scaleIncastSpecs builds the bounded-degree burst: `degree`
// cross-rack senders spread evenly over the host range (so every pod
// contributes), each firing one 30–40 MTU flow at t=0 toward the
// last host — the same per-flow shape as the paper-scale pure
// incast, sampled deterministically from the seed.
func scaleIncastSpecs(tp *topo.Topology, seed uint64, degree int) []workload.FlowSpec {
	r := newRand(seed)
	dst := tp.Hosts[len(tp.Hosts)-1]
	eligible := workload.CrossRackSenders(tp, dst)
	if degree > len(eligible) {
		degree = len(eligible)
	}
	specs := make([]workload.FlowSpec, 0, degree)
	for i := 0; i < degree; i++ {
		src := eligible[i*len(eligible)/degree]
		size := 30*mtu + units.ByteSize(r.Int63n(int64(10*mtu)+1))
		specs = append(specs, workload.FlowSpec{Src: src, Dst: dst, Size: size, Cat: catIncast})
	}
	return specs
}

// ScaleIncast runs the canonical incast on the selected large-fabric
// preset (default: the 100k-host Clos) under DCQCN with and without
// Floodgate, and reports two tables: the fabric's route-memory
// accounting and the burst's completion stats. Route memory is
// checked structurally here (kind + O(total ports) bound); the live
// heap budget is nondeterministic and asserted by the scale tests
// and benchmarks instead, keeping this table byte-identical across
// parallelism.
func ScaleIncast(o Options) []Table {
	o = o.norm()
	tp, preset, err := o.scaleTopo("clos100k")
	if err != nil {
		panic(err)
	}
	mem := Table{
		Title:  "scaleincast: route memory — " + preset,
		Header: []string{"quantity", "value"},
	}
	hosts := int64(tp.NumHosts())
	nodes := int64(len(tp.Nodes))
	ports := int64(tp.TotalPorts())
	routeBytes := tp.RouteBytes()
	// The dense baseline counted analytically: the old tables held one
	// 24-byte slice header per (node, host) pair before a single
	// candidate entry — the term that made 100k hosts unbuildable.
	denseHeaders := 24 * nodes * (hosts + 1)
	mem.AddRow("hosts", fmt.Sprintf("%d", hosts))
	mem.AddRow("switches", fmt.Sprintf("%d", nodes-hosts))
	mem.AddRow("directed ports", fmt.Sprintf("%d", ports))
	mem.AddRow("router", tp.RouterKind())
	mem.AddRow("route_bytes", fmt.Sprintf("%d", routeBytes))
	mem.AddRow("route bytes/port", fmt.Sprintf("%.1f", float64(routeBytes)/float64(ports)))
	mem.AddRow("dense headers (est)", fmt.Sprintf("%d", denseHeaders))
	mem.AddRow("dense/structural", fmt.Sprintf("%dx", denseHeaders/max64(routeBytes, 1)))
	mem.AddRow("topo+route bytes/host", fmt.Sprintf("%d", (tp.StructBytes()+routeBytes)/max64(hosts, 1)))
	mem.Comment = "deterministic accounting; live-heap budget asserted by TestScaleIncastCompletes / BenchmarkRunScaleIncast"

	dur := o.duration(fullScaleIncastDuration)
	// Both schemes share one immutable Topology — at 100k hosts,
	// building it twice would double the dominant memory term for no
	// isolation benefit (parallel runs share topologies everywhere
	// else too).
	runs := runJobs(o, 2, func(idx int) *RunResult {
		s := DCQCN(o)
		if idx == 1 {
			s = WithFloodgate(o, DCQCN(o), baseBDPOf(tp))
		}
		specs := scaleIncastSpecs(tp, o.Seed, scaleIncastDegree)
		return Run(RunConfig{
			Topo: tp, Scheme: s, Specs: specs,
			Duration: dur, Seed: o.Seed, Opt: o,
			BufferSize: units.ByteSize(len(specs)) * 35 * mtu,
		})
	})
	run := Table{
		Title:  fmt.Sprintf("scaleincast: %d-way incast on %s", scaleIncastDegree, preset),
		Header: []string{"scheme", "completed", "avg FCT", "p99 FCT", "drops", "pfc pauses"},
	}
	for _, res := range runs {
		avg, p99 := stats.FCTStats(res.Stats.FCTs(stats.CatIncast))
		run.AddRow(res.Scheme,
			fmt.Sprintf("%d/%d", res.Completed, res.Total),
			fmt.Sprintf("%v", avg), fmt.Sprintf("%v", p99),
			fmt.Sprintf("%d", res.Stats.Drops), fmt.Sprintf("%d", res.Stats.PFCEventCount()))
	}
	return []Table{mem, run}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
