package main

import (
	"floodgate"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// scenario is one benchmark workload: a fabric, a seeded flow list on
// it, and the run configuration that drives both through floodgate.Run.
// Every scenario runs DCQCN+Floodgate on a single engine (Shards 1,
// Parallelism 1). tiny selects the smoke-test size of the same shape.
type scenario struct {
	name   string
	fabric func(tiny bool) *topo.Topology
	specs  func(tp *topo.Topology, seed uint64, tiny bool) []workload.FlowSpec
	config func(tp *topo.Topology, specs []workload.FlowSpec, seed uint64, tiny bool) floodgate.RunConfig
}

var scenarios = []scenario{
	// The paper's headline regime (§6.1, Fig 2/8/9/10, Table 2): the
	// event loop dominates, and Floodgate's credit path runs on every
	// packet while its park path runs on every incast.
	{
		name:   "incast_mix",
		fabric: func(tiny bool) *topo.Topology { return leafSpine(incastMixScale(tiny)) },
		specs: func(tp *topo.Topology, seed uint64, tiny bool) []workload.FlowSpec {
			return incastMixSpecs(tp, seed, incastMixWindow(tiny))
		},
		config: func(tp *topo.Topology, specs []workload.FlowSpec, seed uint64, tiny bool) floodgate.RunConfig {
			return runConfig(tp, specs, seed, incastMixScale(tiny), incastMixWindow(tiny),
				units.ByteSize(len(crossRackSenders(tp)))*35*packet.MTU)
		},
	},
	// Fig 22's regime: pure Poisson of mostly one-packet Memcached
	// flows, no planned incast. Per-flow cost dominates (generation,
	// registration, one ACK and one CC update per flow, FCT records,
	// GC), and any parking is a false incast identification.
	{
		name:   "poisson_tiny",
		fabric: func(tiny bool) *topo.Topology { return leafSpine(0.25) },
		specs: func(tp *topo.Topology, seed uint64, tiny bool) []workload.FlowSpec {
			return workload.Poisson(workload.PoissonConfig{
				CDF: workload.Memcached, Load: 0.8,
				Hosts: tp.Hosts, HostRate: hostRate(tp),
				Until: poissonWindow(tiny),
			}, sim.NewRand(seed))
		},
		config: func(tp *topo.Topology, specs []workload.FlowSpec, seed uint64, tiny bool) floodgate.RunConfig {
			return runConfig(tp, specs, seed, 0.25, poissonWindow(tiny), 0)
		},
	},
	// The scaleincast experiment's 256-way canonical incast on the
	// 102,400-host Clos: set-up and memory dominate (topology build,
	// device construction, Floodgate's per-port credit rows) while the
	// event loop does little.
	{
		name: "clos100k_incast",
		fabric: func(tiny bool) *topo.Topology {
			c := topo.Clos100k()
			if tiny {
				c = topo.DefaultClos()
			}
			c.HostRate = rate(c.HostRate, closScale)
			c.FabricRate = rate(c.FabricRate, closScale)
			c.Prop = stretch(c.Prop, closScale)
			return c.Build()
		},
		specs: func(tp *topo.Topology, seed uint64, tiny bool) []workload.FlowSpec {
			degree := 256
			if tiny {
				degree = 16
			}
			return spreadIncastSpecs(tp, seed, degree)
		},
		config: func(tp *topo.Topology, specs []workload.FlowSpec, seed uint64, tiny bool) floodgate.RunConfig {
			return runConfig(tp, specs, seed, closScale, 8*units.Millisecond,
				units.ByteSize(len(specs))*35*packet.MTU)
		},
	},
}

// closScale is scaleincast's default slow-motion scale.
const closScale = 0.25

func incastMixScale(tiny bool) float64 {
	if tiny {
		return 0.1
	}
	return 0.5
}

// incastMixWindow is the paper-scale §6.1 workload window.
func incastMixWindow(tiny bool) units.Duration {
	if tiny {
		return 200 * units.Microsecond
	}
	return 4 * units.Millisecond
}

// poissonWindow is a quarter of Fig 22's 4 ms window: ~300k flows,
// which keeps several runs inside one measurement and the live heap
// far below the machine's memory while per-flow work still dominates.
func poissonWindow(tiny bool) units.Duration {
	if tiny {
		return 100 * units.Microsecond
	}
	return units.Millisecond
}

func findScenario(name string) *scenario {
	for i := range scenarios {
		if scenarios[i].name == name {
			return &scenarios[i]
		}
	}
	return nil
}

// runConfig assembles a DCQCN+Floodgate run at the given slow-motion
// scale. A zero buffer keeps the experiment package's scaled default.
func runConfig(tp *topo.Topology, specs []workload.FlowSpec, seed uint64, scale float64, window units.Duration, buffer units.ByteSize) floodgate.RunConfig {
	o := floodgate.Options{Scale: scale, Seed: seed, Parallelism: 1, Shards: 1}
	return floodgate.RunConfig{
		Topo:       tp,
		Scheme:     floodgate.WithFloodgate(o, floodgate.DCQCN(o), baseBDP(tp)),
		Specs:      specs,
		Duration:   window,
		Seed:       seed,
		Opt:        o,
		BufferSize: buffer,
	}
}

// The helpers below restate the experiment package's slow-motion scale
// model (exp.Options): link rates shrink by the scale, propagation
// delays stretch by its inverse, and rack width shrinks with it.

func rate(full units.BitRate, scale float64) units.BitRate {
	return units.BitRate(float64(full) * scale)
}

func stretch(full units.Duration, scale float64) units.Duration {
	return units.Duration(float64(full) / scale)
}

// leafSpine builds the §6 leaf-spine fabric at a scale: 16 hosts per
// rack scaled (at least 6), one spine per four hosts per rack.
func leafSpine(scale float64) *topo.Topology {
	c := topo.DefaultLeafSpine()
	h := int(16*scale + 0.5)
	if h < 6 {
		h = 6
	}
	c.HostsPerToR = h
	c.Spines = (h + 3) / 4
	c.HostRate = rate(c.HostRate, scale)
	c.SpineRate = rate(c.SpineRate, scale)
	c.Prop = stretch(c.Prop, scale)
	return c.Build()
}

func hostRate(tp *topo.Topology) units.BitRate { return tp.Node(tp.Hosts[0]).Ports[0].Rate }

// baseBDP is the fabric's base BDP for Floodgate's thresholds: host
// line rate times a 2-tier round trip of propagation plus MTU
// serialization per hop.
func baseBDP(tp *topo.Topology) units.ByteSize {
	p := tp.Node(tp.Hosts[0]).Ports[0]
	return units.BDP(p.Rate, 2*4*(p.Prop+units.TxTime(packet.MTU, p.Rate)))
}

// crossRackSenders lists every host outside the incast victim's rack;
// the victim is always the last host.
func crossRackSenders(tp *topo.Topology) []packet.NodeID {
	return workload.CrossRackSenders(tp, tp.Hosts[len(tp.Hosts)-1])
}

// incastMixSpecs is the §6.1 mix: WebServer Poisson at load 0.8 to
// every host but the victim, plus periodic all-cross-rack 30–40 MTU
// incast at destination load 0.5 into the victim.
func incastMixSpecs(tp *topo.Topology, seed uint64, window units.Duration) []workload.FlowSpec {
	r := sim.NewRand(seed)
	dst := tp.Hosts[len(tp.Hosts)-1]
	senders := crossRackSenders(tp)
	poisson := workload.Poisson(workload.PoissonConfig{
		CDF: workload.WebServer, Load: 0.8,
		Hosts: tp.Hosts, HostRate: hostRate(tp),
		ExcludeDst: map[packet.NodeID]bool{dst: true},
		Until:      window,
		Categorize: workload.RackVictimCategorizer(tp, dst),
	}, r.Fork())
	incast := workload.Incast(workload.IncastConfig{
		Dst: dst, Senders: senders, Degree: len(senders),
		MinSize: 30 * packet.MTU, MaxSize: 40 * packet.MTU,
		Load: 0.5, DstRate: hostRate(tp), Until: window,
	}, r.Fork())
	return workload.Merge(poisson, incast)
}

// spreadIncastSpecs is scaleincast's burst: degree cross-rack senders
// spread evenly over the host range, each starting one 30–40 MTU flow
// at t=0 toward the last host.
func spreadIncastSpecs(tp *topo.Topology, seed uint64, degree int) []workload.FlowSpec {
	r := sim.NewRand(seed)
	dst := tp.Hosts[len(tp.Hosts)-1]
	eligible := crossRackSenders(tp)
	if degree > len(eligible) {
		degree = len(eligible)
	}
	specs := make([]workload.FlowSpec, 0, degree)
	for i := 0; i < degree; i++ {
		size := 30*packet.MTU + units.ByteSize(r.Int63n(int64(10*packet.MTU)+1))
		specs = append(specs, workload.FlowSpec{
			Src: eligible[i*len(eligible)/degree], Dst: dst, Size: size, Cat: packet.CatIncast,
		})
	}
	return specs
}
