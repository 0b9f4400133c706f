//lint:hotpath every probe method runs at a per-packet or per-flow event site

package device

import (
	"floodgate/internal/forensics"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/trace"
	"floodgate/internal/units"
)

// Probe is the network's one instrumentation surface (DESIGN §8, Event
// surface): one method per event, feeding the sinks in a fixed order —
// stats collector, metric handles, trace ring, forensics recorder. A
// disabled trace ring or recorder costs one nil check, no allocation.
// Device-internal events that feed one sink and hide nothing keep a
// direct call.
type Probe struct {
	eng   *sim.Engine
	stats *stats.Collector
	m     NetMetrics
	trace *trace.Buffer
	frx   *forensics.Recorder
}

// Probe returns the network's instrumentation surface.
func (n *Network) Probe() *Probe { return &n.probe }

// record traces a packet lifecycle point; aux is trace.Event.Aux.
func (pr *Probe) record(op trace.Op, node packet.NodeID, p *packet.Packet, aux packet.NodeID) {
	if pr.trace != nil {
		pr.trace.Record(trace.Event{At: pr.eng.Now(), Op: op, Node: node, Kind: p.Kind,
			Flow: p.Flow, Seq: p.Seq, Size: p.Size, Dst: p.Dst, Aux: aux})
	}
}

// recordFlow traces a packet-less flow point (RTO rewind, app step):
// Seq is the flow's unacknowledged edge, Size its bytes in flight.
func (pr *Probe) recordFlow(op trace.Op, node packet.NodeID, f *Flow) {
	if pr.trace != nil {
		pr.trace.Record(trace.Event{At: pr.eng.Now(), Op: op, Node: node, Kind: packet.Data,
			Flow: f.ID, Seq: f.sndUna, Size: f.inflight(), Dst: f.Dst})
	}
}

// Drop: p was discarded at node; a lost credit leaves the in-flight gauge.
func (pr *Probe) Drop(node packet.NodeID, p *packet.Packet) {
	pr.stats.Drops++
	pr.m.Drops.Inc()
	if p.Kind == packet.Credit {
		pr.m.FGCreditsInFlight.Add(-1)
	}
	pr.record(trace.OpDrop, node, p, 0)
}

// Trim: NDP cut a data packet's payload.
func (pr *Probe) Trim() {
	pr.stats.Trims++
	pr.m.Trims.Inc()
}

// Enqueue: p joined egress out of switch s. A final segment is stamped
// with the port's paused time so far, so Dequeue can split its wait.
// The gate keeps the disabled path inlined at the call site.
func (pr *Probe) Enqueue(s *Switch, out int, p *packet.Packet) {
	if pr.trace != nil || pr.frx != nil {
		pr.enqueue(s, out, p)
	}
}

func (pr *Probe) enqueue(s *Switch, out int, p *packet.Packet) {
	pr.record(trace.OpEnqueue, s.node.ID, p, 0)
	if pr.frx != nil && p.Last && !p.Trimmed {
		c := s.pauseCum[out]
		if s.pausedSelf[out] {
			c += pr.eng.Now().Sub(s.pauseStart[out])
		}
		p.EnqPauseCum = c
	}
}

// Dequeue: data packet p left egress tp, whose closed paused time is
// pauseCum (a port is never paused at a data dequeue).
func (pr *Probe) Dequeue(p *packet.Packet, tp *topo.Port, pauseCum units.Duration) {
	wait := pr.eng.Now().Sub(p.EnqueuedAt)
	if p.Cat != packet.CatIncast { // Fig 11b attributes non-incast data only
		pr.stats.QueueDelay(tp.Class, wait)
		pr.m.QueueDelay.Observe(int64(wait))
	}
	if pr.frx != nil && p.Last && !p.Trimmed {
		pr.frx.Hop(p.Flow, wait, pauseCum-p.EnqPauseCum, units.TxTime(p.Size, tp.Rate))
	}
}

// Tx: switch node put p on the wire.
func (pr *Probe) Tx(node packet.NodeID, p *packet.Packet) {
	pr.stats.OnWire(pr.eng.Now(), wireClass(p.Kind), p.Size)
	if p.Kind == packet.Data && pr.trace != nil { // trimmed headers keep Kind Data
		pr.record(trace.OpTx, node, p, 0)
	}
}

func wireClass(k packet.Kind) stats.WireClass {
	switch k {
	case packet.Data:
		return stats.WireData
	case packet.Credit, packet.SwitchSYN:
		return stats.WireCredit
	}
	return stats.WireCtrl
}

// PortBytes: an egress port's queued-plus-parked bytes moved by delta.
func (pr *Probe) PortBytes(class topo.PortClass, delta, total units.ByteSize) {
	pr.stats.PortBuffer(pr.eng.Now(), class, total)
	pr.m.QueuedBytes[class].Add(int64(delta))
}

// PFCResume: a pause at layer ended after d.
func (pr *Probe) PFCResume(layer topo.Layer, d units.Duration) {
	pr.stats.PFCPaused(layer, d)
	pr.m.PFCPortsPaused.Add(-1)
}

// Send: host node put data segment p on its NIC.
func (pr *Probe) Send(node packet.NodeID, p *packet.Packet) {
	if p.Retrans {
		pr.m.RetxSegments.Inc()
	}
	pr.record(trace.OpSend, node, p, 0)
	if p.Retrans {
		pr.record(trace.OpRetx, node, p, 0)
	}
}

// Deliver: data packet p reached destination host node.
func (pr *Probe) Deliver(node packet.NodeID, p *packet.Packet) {
	if pr.trace != nil {
		pr.record(trace.OpDeliver, node, p, 0)
	}
}

// FlowDone: f delivered its last byte; rate is the receiver's.
func (pr *Probe) FlowDone(f *Flow, rate units.BitRate) {
	now := pr.eng.Now()
	pr.stats.FlowDone(uint64(f.ID), f.Cat, f.Size, f.Start, now, rate)
	pr.m.FCT.Observe(int64(now.Sub(f.Start)))
}

// RTO: host node's timeout fired for f, before its sender rewinds.
func (pr *Probe) RTO(node packet.NodeID, f *Flow) {
	pr.stats.Retransmits++
	pr.m.RTOs.Inc()
	pr.recordFlow(trace.OpRTO, node, f)
}

// FlowState and FlowsSealed: flow f of host h entered sender wait
// state st, passing the host's paused time so far; the flow registry
// closed with n entries.
func (pr *Probe) FlowState(h *Host, f *Flow, st forensics.SendState) {
	if pr.frx != nil {
		pr.flowState(h, f, st)
	}
}

func (pr *Probe) flowState(h *Host, f *Flow, st forensics.SendState) {
	now, c := pr.eng.Now(), h.pfcCum
	if h.pfcPaused {
		c += now.Sub(h.pfcStart)
	}
	pr.frx.FlowState(f.ID, st, now, c)
}

func (pr *Probe) FlowsSealed(n int) {
	if pr.frx != nil {
		pr.frx.Seal(n)
	}
}

// Single-handle events from outside the device layer: the watchdog
// stopped the run; Floodgate's window count or occupied window bytes
// moved; a credit reached its upstream; a channel resynced.
func (pr *Probe) WatchdogTrip()           { pr.m.WatchdogTrips.Inc() }
func (pr *Probe) Windows(delta int)       { pr.m.FGWindows.Add(int64(delta)) }
func (pr *Probe) WindowBytes(delta int64) { pr.m.FGWindowBytes.Add(delta) }
func (pr *Probe) CreditApplied()          { pr.m.FGCreditsInFlight.Add(-1) }
func (pr *Probe) Resync()                 { pr.m.FGResyncs.Inc() }

// VOQs: occupied VOQs moved by delta to inUse (PFC w/ tag passes 0).
func (pr *Probe) VOQs(delta, inUse int) {
	pr.stats.VOQInUse(inUse)
	pr.m.FGVOQsInUse.Add(int64(delta))
}

// Park, Unpark and DropParked: switch node parked p (its destination
// now has dstParked there), released it on a credit switch from sent
// at creditAt, or discarded it at a restart.
func (pr *Probe) Park(node packet.NodeID, p *packet.Packet, dstParked units.ByteSize) {
	pr.m.FGParkedBytes.Add(int64(p.Size))
	pr.record(trace.OpPark, node, p, 0)
	if pr.frx != nil {
		pr.frx.Parked(node, p.Dst, p.Flow, dstParked)
	}
}

func (pr *Probe) Unpark(node packet.NodeID, p *packet.Packet, creditAt units.Time, from packet.NodeID) {
	pr.m.FGParkedBytes.Add(-int64(p.Size))
	pr.record(trace.OpUnpark, node, p, from)
	if pr.frx != nil {
		now := pr.eng.Now()
		pr.frx.Unparked(p.Flow, p.Last && !p.Trimmed, now.Sub(p.EnqueuedAt), now.Sub(creditAt))
	}
}

func (pr *Probe) DropParked(node packet.NodeID, p *packet.Packet) {
	pr.m.FGParkedBytes.Add(-int64(p.Size))
	pr.Drop(node, p)
}

// CreditSent: switch node emitted credit cr for destination dst.
func (pr *Probe) CreditSent(node packet.NodeID, cr *packet.Packet, dst packet.NodeID) {
	pr.m.FGCreditsInFlight.Add(1)
	pr.record(trace.OpCredit, node, cr, dst)
}

// Episode: dst's window at switch sw exhausted (open), or its VOQ
// drained or died in a restart.
func (pr *Probe) Episode(sw, dst packet.NodeID, open bool) {
	if pr.frx != nil && open {
		pr.frx.EpisodeStart(sw, dst, pr.eng.Now())
	} else if pr.frx != nil {
		pr.frx.EpisodeEnd(sw, dst, pr.eng.Now())
	}
}

// AppOp is an application-plane attempt kind, in trace-op order.
type AppOp uint8

const (
	AppReq   AppOp = iota // a request's first attempt
	AppRetry              // timeout-driven retry
	AppHedge              // hedge racing the first attempt
)

// App events: a request arrived; a reply reached its client; a request
// launched an op attempt, and client node launched its flow f.
func (pr *Probe) AppArrive() { pr.m.AppRequests.Inc() }
func (pr *Probe) AppReply()  { pr.m.AppReplies.Inc() }

func (pr *Probe) AppAttempt(op AppOp) {
	if op == AppRetry {
		pr.m.AppRetries.Inc()
	} else if op == AppHedge {
		pr.m.AppHedges.Inc()
	}
}

func (pr *Probe) AppLaunch(op AppOp, node packet.NodeID, f *Flow) {
	pr.recordFlow(trace.OpAppReq+trace.Op(op), node, f)
}

// At client node a breaker shed a request, a deadline expired, or a
// request resolved after lat (ok: quorum). f is the flow it names.
func (pr *Probe) AppShed(node packet.NodeID, f *Flow) {
	pr.m.AppShed.Inc()
	pr.recordFlow(trace.OpAppDone, node, f)
}

func (pr *Probe) AppTimeout(node packet.NodeID, f *Flow) {
	pr.m.AppTimeouts.Inc()
	pr.recordFlow(trace.OpAppTimeout, node, f)
}

func (pr *Probe) AppResolve(node packet.NodeID, f *Flow, lat units.Duration, ok bool) {
	if ok {
		pr.m.AppReqLatency.Observe(int64(lat))
	}
	pr.recordFlow(trace.OpAppDone, node, f)
}
