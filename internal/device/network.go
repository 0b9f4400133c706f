//lint:hotpath flow wake/start scheduling and the packet pool run per packet

// Package device turns a topology into a running packet-level network:
// switches with shared buffers, PFC and ECN; hosts with paced,
// window-limited, go-back-N reliable flows driven by pluggable
// congestion control; and a FlowControl hook where Floodgate and the
// baseline schemes attach. Everything executes on one sim.Engine.
package device

import (
	"fmt"

	"floodgate/internal/cc"
	"floodgate/internal/forensics"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/trace"
	"floodgate/internal/units"
)

// PFCConfig controls Priority Flow Control on switches.
type PFCConfig struct {
	Enable bool
	// Alpha is the dynamic-threshold factor: an ingress port pauses its
	// upstream when its occupancy exceeds Alpha × free buffer (§6: α=2).
	Alpha float64
	// ResumeFraction scales the pause threshold down for resume
	// hysteresis (resume below Alpha × free × ResumeFraction).
	ResumeFraction float64
}

// ECNConfig controls RED/ECN marking on switch egress queues.
type ECNConfig struct {
	Enable bool
	KMin   units.ByteSize
	KMax   units.ByteSize
	PMax   float64
}

// NDPConfig enables cut-payload trimming on switches and receiver-
// driven pulls on hosts.
type NDPConfig struct {
	Enable     bool
	TrimThresh units.ByteSize // egress backlog above which payloads are trimmed
}

// Config assembles a simulation.
type Config struct {
	Topo   *topo.Topology
	Engine *sim.Engine
	Stats  *stats.Collector

	// Seed feeds every device-layer PRNG (per-switch ECN/loss draws,
	// fault-plane Gilbert–Elliott chains). Each consumer derives its
	// own stream from (Seed, node ID), so draws are independent of
	// event interleaving across devices.
	Seed uint64

	BufferSize units.ByteSize // per-switch shared buffer (default 20MB)
	PFC        PFCConfig
	ECN        ECNConfig
	INT        bool // append HPCC telemetry at egress
	NDP        NDPConfig

	CC      cc.Factory
	BaseRTT units.Duration // per-flow Env.BaseRTT (default: derived)
	RTO     units.Duration // go-back-N retransmission timeout (default 1ms)

	// CNPInterval rate-limits DCQCN notification packets per flow.
	CNPInterval units.Duration

	// QueuesPerPort is the number of egress data queues (1 unless BFC).
	QueuesPerPort int

	// FC builds the per-switch flow-control module (nil = none).
	FC FCFactory

	// PerDstPause enables host NICs to honour Floodgate dstPause frames.
	PerDstPause bool

	// LossRate injects uniform drops of data and credit frames on
	// switch-to-switch links.
	LossRate float64

	// CreditLossRate additionally drops only Floodgate credit/switchSYN
	// frames — the paper's Fig 12 stress, which isolates the switch
	// window-recovery path (PSN + switchSYN) from host retransmission.
	CreditLossRate float64

	// Trace, when non-nil, records packet lifecycle events (see the
	// trace package). Disabled tracing costs one nil check per event.
	Trace *trace.Buffer

	// Forensics, when non-nil, receives causal wait-state hooks (see
	// the forensics package). Disabled forensics costs one nil check
	// per hook site and allocates nothing.
	Forensics *forensics.Recorder

	// Metrics carries the instrument handles the devices update. The
	// zero value is inert (nil-safe handles), so unmetered runs pay
	// only embedded nil checks.
	Metrics NetMetrics
}

// Defaults fills unset fields.
func (c *Config) defaults() {
	if c.BufferSize == 0 {
		c.BufferSize = 20 * units.MB
	}
	if c.PFC.Alpha == 0 {
		c.PFC.Alpha = 2
	}
	if c.PFC.ResumeFraction == 0 {
		c.PFC.ResumeFraction = 0.8
	}
	if c.ECN.KMin == 0 {
		c.ECN.KMin = 40 * units.KB
	}
	if c.ECN.KMax == 0 {
		c.ECN.KMax = 160 * units.KB
	}
	if c.ECN.PMax == 0 {
		c.ECN.PMax = 0.2
	}
	if c.RTO == 0 {
		c.RTO = units.Millisecond
	}
	if c.CNPInterval == 0 {
		c.CNPInterval = 50 * units.Microsecond
	}
	if c.QueuesPerPort == 0 {
		c.QueuesPerPort = 1
	}
	if c.NDP.Enable && c.NDP.TrimThresh == 0 {
		c.NDP.TrimThresh = 8 * packet.MTU
	}
	if c.CC == nil {
		c.CC = cc.NewFixedWindow()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Stats == nil {
		c.Stats = stats.NewCollector(10 * units.Microsecond)
	}
}

// Network is the wired simulation: one device per topology node.
type Network struct {
	Cfg     Config
	Topo    *topo.Topology
	Eng     *sim.Engine
	Stats   *stats.Collector
	Metrics NetMetrics
	nextID  uint64

	// dirBase[id] is the number of directed ports owned by nodes with
	// smaller IDs: wire delivery priorities are PriWireBase + dirBase
	// [owner] + port index, giving every directed link a globally
	// unique same-timestamp priority.
	dirBase []uint32

	Switches  []*Switch // indexed by NodeID (nil for hosts)
	HostsByID []*Host   // indexed by NodeID (nil for switches)
	Hosts     []*Host   // dense, in topo.Hosts order

	flows   []*Flow // indexed by FlowID (ids are dense, starting at 1)
	pktPool []*packet.Packet

	// Ordered flow registry (RegisterFlow/AddAppFlow, then SealFlows):
	// lastStart enforces non-decreasing starts, direct counts flows
	// AddFlow scheduled itself, and injNext/injEnd walk the registered
	// range of flows for the injection chain.
	lastStart units.Time
	sealed    bool
	direct    int
	injNext   int
	injEnd    int

	// frx is the run's forensics recorder (nil when disabled); every
	// hook site checks it before doing any work.
	frx *forensics.Recorder

	// faults is the runtime fault-plane state (nil without a plan); see
	// faults.go. delivered is the global payload-progress counter the
	// stall watchdog monitors.
	faults    *faultState
	delivered units.ByteSize

	// OnFlowDone, if set, fires when a flow's last byte is delivered.
	OnFlowDone func(f *Flow, finish units.Time)
}

// New wires a network from the config.
func New(cfg Config) *Network {
	cfg.defaults()
	if cfg.Topo == nil || cfg.Engine == nil {
		panic("device: Config.Topo and Config.Engine are required")
	}
	n := &Network{
		Cfg:       cfg,
		Topo:      cfg.Topo,
		Eng:       cfg.Engine,
		Stats:     cfg.Stats,
		Metrics:   cfg.Metrics,
		Switches:  make([]*Switch, len(cfg.Topo.Nodes)),
		HostsByID: make([]*Host, len(cfg.Topo.Nodes)),
		flows:     []*Flow{nil}, // FlowID 0 is unused
		frx:       cfg.Forensics,
	}
	n.dirBase = make([]uint32, len(cfg.Topo.Nodes))
	var dirCnt uint32
	for _, node := range cfg.Topo.Nodes {
		n.dirBase[node.ID] = dirCnt
		dirCnt += uint32(len(node.Ports))
	}
	if uint64(sim.PriWireBase)+uint64(dirCnt) >= uint64(sim.PriTimer) {
		panic("device: topology has too many directed ports for wire priorities")
	}
	if n.Cfg.BaseRTT == 0 {
		n.Cfg.BaseRTT = n.deriveBaseRTT()
	}
	// Deterministic scale gauges: pure functions of the frozen
	// topology, so they are safe in byte-identity-checked exports.
	// The heap gauge is deliberately NOT set here (see
	// SnapshotMemStats).
	t := cfg.Topo
	n.Metrics.ScaleHosts.Set(int64(t.NumHosts()))
	n.Metrics.ScaleRouteBytes.Set(t.RouteBytes())
	if hosts := int64(t.NumHosts()); hosts > 0 {
		n.Metrics.ScaleBytesPerHost.Set((t.StructBytes() + t.RouteBytes()) / hosts)
	}
	for _, node := range cfg.Topo.Nodes {
		if node.Kind == topo.SwitchNode {
			n.Switches[node.ID] = newSwitch(n, node)
		} else {
			h := newHost(n, node)
			n.HostsByID[node.ID] = h
			n.Hosts = append(n.Hosts, h)
		}
	}
	// Flow-control modules attach after all devices exist (they inspect
	// topology neighbours).
	if cfg.FC != nil {
		for _, sw := range n.Switches {
			if sw != nil {
				sw.fc = cfg.FC(sw)
			}
		}
	}
	return n
}

// deriveBaseRTT estimates the unloaded cross-fabric RTT: propagation
// both ways over the longest host-to-host path plus per-hop MTU
// serialization. For the paper's 2-tier fabric this lands at ~5.1 µs.
func (n *Network) deriveBaseRTT() units.Duration {
	t := n.Topo
	if len(t.Hosts) < 2 {
		return 10 * units.Microsecond
	}
	src := t.Hosts[0]
	dst := t.Hosts[len(t.Hosts)-1]
	var oneWay units.Duration
	cur := src
	for cur != dst {
		p := t.Node(cur).Ports[t.ECMP(cur, src, dst)]
		oneWay += p.Prop + units.TxTime(packet.MTU, p.Rate)
		cur = p.Peer
	}
	// Reverse path carries the (MTU-serialised) ACK per the convention
	// of symmetric base RTT; add control serialization which is tiny.
	return 2 * oneWay
}

// BaseRTT returns the flow-level base RTT in use.
func (n *Network) BaseRTT() units.Duration { return n.Cfg.BaseRTT }

// BaseBDP returns host line rate × base RTT for the topology's first
// host.
func (n *Network) BaseBDP() units.ByteSize {
	p := &n.Topo.Node(n.Topo.Hosts[0]).Ports[0]
	return units.BDP(p.Rate, n.Cfg.BaseRTT)
}

// wirePri is the engine priority of the directed link (owner, port).
func (n *Network) wirePri(owner packet.NodeID, port int) uint32 {
	return sim.PriWireBase + n.dirBase[owner] + uint32(port)
}

// pktID mints a unique packet id.
func (n *Network) pktID() uint64 {
	n.nextID++
	return n.nextID
}

// PktID mints a unique packet id (for flow-control modules).
func (n *Network) PktID() uint64 { return n.pktID() }

// TraceEvent records a packet lifecycle point when tracing is enabled
// (used by devices and flow-control modules).
func (n *Network) TraceEvent(op trace.Op, node packet.NodeID, p *packet.Packet) {
	if n.Cfg.Trace != nil {
		n.Cfg.Trace.Record(trace.Of(n.Eng.Now(), op, node, p))
	}
}

// TraceAux records a lifecycle point carrying an op-specific
// counterpart node in the event's Aux field (the credited flow
// destination on OpCredit, the credit's source switch on OpUnpark) so
// the Perfetto exporter can link cause to effect.
func (n *Network) TraceAux(op trace.Op, node packet.NodeID, p *packet.Packet, aux packet.NodeID) {
	if n.Cfg.Trace != nil {
		e := trace.Of(n.Eng.Now(), op, node, p)
		e.Aux = aux
		n.Cfg.Trace.Record(e)
	}
}

// ForensicsRec returns the run's forensics recorder (nil when
// disabled); flow-control modules cache it at construction.
func (n *Network) ForensicsRec() *forensics.Recorder { return n.frx }

// TraceFlow records a packet-less flow lifecycle point (e.g. an RTO
// rewind, which has no frame to borrow fields from): Seq carries the
// rewind target and Size the bytes that were in flight.
func (n *Network) TraceFlow(op trace.Op, node packet.NodeID, f *Flow) {
	if n.Cfg.Trace != nil {
		n.Cfg.Trace.Record(trace.Event{
			At: n.Eng.Now(), Op: op, Node: node, Kind: packet.Data,
			Flow: f.ID, Seq: f.sndUna, Size: f.inflight(), Dst: f.Dst,
		})
	}
}

// Device dispatch: deliver a packet to the node that owns the port.
func (n *Network) deliver(to packet.NodeID, p *packet.Packet, inPort int) {
	p.AssertLive("Network.deliver")
	if sw := n.Switches[to]; sw != nil {
		sw.receive(p, inPort)
		return
	}
	n.HostsByID[to].receive(p)
}

// Flow lookup (receiver and sender side share the Flow object).
func (n *Network) flow(id packet.FlowID) *Flow {
	if id == 0 || int(id) >= len(n.flows) {
		return nil
	}
	return n.flows[id]
}

// newFlow validates the endpoints, mints the next FlowID and the
// flow's congestion controller, and appends the flow to the table.
func (n *Network) newFlow(src, dst packet.NodeID, size units.ByteSize, start units.Time, cat packet.Category) *Flow {
	if src == dst {
		panic("device: flow with src == dst")
	}
	if size <= 0 {
		panic("device: flow with non-positive size")
	}
	sh := n.HostsByID[src]
	if sh == nil || n.HostsByID[dst] == nil {
		panic(fmt.Sprintf("device: flow endpoints must be hosts (%d -> %d)", src, dst))
	}
	env := cc.Env{
		LinkRate: sh.port.Rate,
		BaseRTT:  n.Cfg.BaseRTT,
		BDP:      units.BDP(sh.port.Rate, n.Cfg.BaseRTT),
	}
	f := &Flow{
		ID: packet.FlowID(len(n.flows)), Src: src, Dst: dst, Size: size, Cat: cat,
		Start: start, ctrl: n.Cfg.CC(env), net: n,
	}
	n.flows = append(n.flows, f)
	return f
}

// AddFlow creates a flow from src to dst and schedules its start
// right away (one engine event per future flow). Returns the flow for
// inspection. Whole workloads go through RegisterFlow instead.
func (n *Network) AddFlow(src, dst packet.NodeID, size units.ByteSize, start units.Time, cat packet.Category) *Flow {
	f := n.newFlow(src, dst, size, start, cat)
	n.direct++
	if start == n.Eng.Now() {
		n.HostsByID[src].startFlow(f)
	} else {
		n.Eng.AtArg(start, flowStartFn, f)
	}
	return f
}

// RegisterFlow adds a flow to the ordered registry: flows are
// registered in a fixed order with non-decreasing starts before
// SealFlows, which arms one chained injector for all of them. The
// FlowID sequence and the injection order are part of the
// deterministic contract.
func (n *Network) RegisterFlow(src, dst packet.NodeID, size units.ByteSize, start units.Time, cat packet.Category) *Flow {
	if start < n.lastStart {
		panic("device: RegisterFlow starts must be non-decreasing (sort specs by Start)")
	}
	f := n.registered(src, dst, size, start, cat)
	n.lastStart = start
	n.injEnd = len(n.flows)
	return f
}

// AddAppFlow registers a deferred application-plane flow: the
// injector skips it and it starts only when Launch is called at
// runtime. Registration order still assigns FlowIDs, so the
// attempt-flow table is part of the deterministic contract; attempt
// (>= 1) stamps the flow for forensics and trace attribution. Start
// carries the earliest possible launch time (informative until Launch
// overwrites it with the real one).
func (n *Network) AddAppFlow(src, dst packet.NodeID, size units.ByteSize, start units.Time, cat packet.Category, attempt int) *Flow {
	if attempt < 1 {
		panic("device: AddAppFlow attempt must be >= 1")
	}
	f := n.registered(src, dst, size, start, cat)
	f.Attempt = attempt
	f.manual = true
	return f
}

func (n *Network) registered(src, dst packet.NodeID, size units.ByteSize, start units.Time, cat packet.Category) *Flow {
	if n.sealed {
		panic("device: flow registered after SealFlows")
	}
	return n.newFlow(src, dst, size, start, cat)
}

// SealFlows closes the registry and arms the injection chain: one
// PriStart event that starts every registered flow due at its time,
// in registration order, then re-arms for the next start. The queue
// stays shallow no matter how many flows are registered, and starts
// run before any same-timestamp wire delivery or timer. Call after
// the last RegisterFlow/AddAppFlow and before running.
func (n *Network) SealFlows() {
	if n.direct > 0 {
		panic("device: SealFlows on a network with AddFlow flows")
	}
	n.sealed = true
	if n.frx != nil {
		n.frx.Seal(len(n.flows))
	}
	n.injNext = 1
	n.armInjector()
}

// armInjector schedules the injector at the next registered open-loop
// flow's start, skipping deferred application flows.
func (n *Network) armInjector() {
	for n.injNext < n.injEnd && n.flows[n.injNext].manual {
		n.injNext++
	}
	if n.injNext < n.injEnd {
		n.Eng.AtArgPri(n.flows[n.injNext].Start, flowInjectFn, n, sim.PriStart)
	}
}

func flowInjectFn(a any) {
	n := a.(*Network)
	now := n.Eng.Now()
	for n.injNext < n.injEnd {
		f := n.flows[n.injNext]
		if f.manual {
			n.injNext++
			continue
		}
		if f.Start > now {
			break
		}
		n.injNext++
		n.HostsByID[f.Src].startFlow(f)
	}
	n.armInjector()
}

// Launch starts a deferred application flow (AddAppFlow) on its
// source host at the current simulation time. A flow launches at most
// once.
func (n *Network) Launch(f *Flow) {
	if !f.manual {
		panic("device: Launch on a non-deferred flow")
	}
	if f.launched {
		panic(fmt.Sprintf("device: flow %d launched twice", f.ID))
	}
	f.launched = true
	f.Start = n.Eng.Now()
	n.HostsByID[f.Src].startFlow(f)
}

// flowStartFn is the capture-free deferred-start callback: workloads
// register tens of thousands of future flows up front.
func flowStartFn(a any) {
	f := a.(*Flow)
	f.net.HostsByID[f.Src].startFlow(f)
}

// Packet pooling: control frames and data segments are recycled at
// their terminal consumption points (receiver host, pause handler,
// drop), which removes the dominant GC pressure of high-rate runs.

// newData builds a pooled data segment.
func (n *Network) newData(flow packet.FlowID, src, dst packet.NodeID, seq, payload units.ByteSize, last bool) *packet.Packet {
	p := n.getPkt()
	p.ID = n.pktID()
	p.Kind = packet.Data
	p.Flow = flow
	p.Src = src
	p.Dst = dst
	p.Size = payload + packet.HeaderSize
	p.Seq = seq
	p.Payload = payload
	p.Last = last
	return p
}

// NewCtrl builds a pooled minimum-size control frame (exported for
// flow-control modules).
func (n *Network) NewCtrl(kind packet.Kind, flow packet.FlowID, src, dst packet.NodeID) *packet.Packet {
	p := n.getPkt()
	p.ID = n.pktID()
	p.Kind = kind
	p.Flow = flow
	p.Src = src
	p.Dst = dst
	p.Size = packet.CtrlSize
	return p
}

// pktChunk is the pool refill batch: one backing array serves this
// many pool misses.
const pktChunk = 64

func (n *Network) getPkt() *packet.Packet {
	if m := len(n.pktPool); m > 0 {
		p := n.pktPool[m-1]
		n.pktPool[m-1] = nil
		n.pktPool = n.pktPool[:m-1]
		p.ResetKeepBuffers()
		p.PoolAcquired()
		return p
	}
	// Refill in chunks: one backing allocation mints pktChunk packets,
	// cutting both alloc count and GC scan pressure at ramp-up.
	chunk := make([]packet.Packet, pktChunk)
	for i := pktChunk - 1; i > 0; i-- {
		n.pktPool = append(n.pktPool, &chunk[i])
	}
	return &chunk[0]
}

// Recycle returns a fully consumed packet to the pool. Callers must
// hold the only reference (exported for flow-control modules).
func (n *Network) Recycle(p *packet.Packet) {
	if p == nil {
		return
	}
	p.PoolReleased()
	n.pktPool = append(n.pktPool, p)
}

// Run advances the simulation to the given time.
func (n *Network) Run(until units.Time) { n.Eng.Run(until) }

// Finalize closes statistics intervals that are still open (PFC pause
// periods in progress when the run ends). Call once after the last Run.
func (n *Network) Finalize() {
	for _, sw := range n.Switches {
		if sw != nil {
			sw.finalizePFC()
		}
	}
	for _, h := range n.Hosts {
		h.finalizePFC()
	}
}

// Flows returns all registered flows (test and reporting helper).
func (n *Network) Flows() []*Flow { return n.flows[1:] }

// DeliveredBytes is the total payload delivered to receivers so far —
// the monotone progress signal the stall watchdog monitors.
func (n *Network) DeliveredBytes() units.ByteSize { return n.delivered }
