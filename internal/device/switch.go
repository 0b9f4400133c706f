//lint:hotpath transmit/deliver scheduling runs once per frame per hop

package device

import (
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/trace"
	"floodgate/internal/units"
)

// outPort is the transmit side of one switch (or host) port: a strict-
// priority control queue over QueuesPerPort round-robin data queues,
// and a busy-until transmitter.
type outPort struct {
	tp      *topo.Port
	ctrl    fifo
	data    []fifo
	rr      int
	busy    bool
	txBytes units.ByteSize // cumulative, for INT telemetry

	// The in-flight chain toward the peer plus the single outstanding
	// transmission's release state (one packet serialises at a time, so
	// scalar fields suffice — no per-packet closure allocation).
	sw          *Switch
	wire        wire
	pendSize    units.ByteSize
	pendInPort  int
	pendCharged bool
}

// txDoneFn completes a switch port's serialization: free the buffer
// share and restart the transmitter.
func txDoneFn(a any) {
	o := a.(*outPort)
	o.busy = false
	if o.pendCharged {
		o.sw.release(o.pendSize, o.pendInPort)
	}
	o.sw.kick(o.tp.Index)
}

func (o *outPort) dataBytes() units.ByteSize {
	var b units.ByteSize
	for i := range o.data {
		b += o.data[i].size()
	}
	return b
}

// Switch is a shared-buffer output-queued switch with PFC, ECN and a
// flow-control module hook.
type Switch struct {
	net  *Network
	node *topo.Node
	fc   FlowControl

	// rnd drives this switch's probabilistic draws (RED marking, loss
	// injection). Seeded from (Config.Seed, node ID) rather than shared
	// network-wide, so each switch consumes an independent stream and
	// draw sequences do not depend on cross-switch event interleaving.
	rnd sim.Rand

	out     []outPort
	used    units.ByteSize   // shared buffer occupancy (data only)
	ingress []units.ByteSize // per ingress port occupancy (PFC accounting)

	pausedUpstream []bool // we paused the peer feeding ingress port i
	pausedUpCount  int
	pausedSelf     []bool // our egress i is paused by the peer's PFC
	pauseStart     []units.Time
	pauseCum       []units.Duration // per egress: closed pause time (forensics overlap basis)

	portBytes []units.ByteSize // per egress port: queued + parked bytes (stats)
}

func newSwitch(n *Network, node *topo.Node) *Switch {
	sw := &Switch{
		net:            n,
		node:           node,
		fc:             nopFC{},
		rnd:            *sim.NewRand(n.Cfg.Seed ^ uint64(node.ID)*0x9e3779b97f4a7c15),
		out:            make([]outPort, len(node.Ports)),
		ingress:        make([]units.ByteSize, len(node.Ports)),
		pausedUpstream: make([]bool, len(node.Ports)),
		pausedSelf:     make([]bool, len(node.Ports)),
		pauseStart:     make([]units.Time, len(node.Ports)),
		pauseCum:       make([]units.Duration, len(node.Ports)),
		portBytes:      make([]units.ByteSize, len(node.Ports)),
	}
	for i := range sw.out {
		o := &sw.out[i]
		o.tp = &node.Ports[i]
		o.data = make([]fifo, n.Cfg.QueuesPerPort)
		o.sw = sw
		o.wire.init(n, o.tp.Peer, o.tp.PeerPort, n.wirePri(node.ID, i))
	}
	return sw
}

// Node returns the topology node this switch realises.
func (s *Switch) Node() *topo.Node { return s.node }

// Net returns the owning network (modules use it for time and stats).
func (s *Switch) Net() *Network { return s.net }

// FC returns the attached flow-control module.
func (s *Switch) FC() FlowControl { return s.fc }

// PortFacesHost reports whether egress port i leads to an end host.
func (s *Switch) PortFacesHost(i int) bool {
	return s.net.Topo.Node(s.node.Ports[i].Peer).Kind == topo.HostNode
}

// PortFacesSwitch reports whether ingress/egress port i leads to a switch.
func (s *Switch) PortFacesSwitch(i int) bool { return !s.PortFacesHost(i) }

// receive is the ingress pipeline.
func (s *Switch) receive(p *packet.Packet, inPort int) {
	switch p.Kind {
	case packet.PFCPause:
		s.pauseSelf(inPort)
		s.net.Recycle(p)
		return
	case packet.PFCResume:
		s.resumeSelf(inPort)
		s.net.Recycle(p)
		return
	case packet.Data:
		s.receiveData(p, inPort)
		return
	}
	// Module control traffic (credits, per-queue/per-dst pauses).
	if s.fc.OnCtrl(p, inPort) {
		s.net.Recycle(p)
		return
	}
	// Transit control frame: forward toward its destination.
	out := s.net.Route(s.node.ID, p.Src, p.Dst)
	s.sendCtrl(p, out)
}

func (s *Switch) receiveData(p *packet.Packet, inPort int) {
	n := s.net
	// Shared-buffer admission.
	if s.used+p.Size > n.Cfg.BufferSize {
		n.Stats.Drop()
		n.Metrics.Drops.Inc()
		n.TraceEvent(trace.OpDrop, s.node.ID, p)
		n.Recycle(p)
		return
	}
	s.charge(p.Size, inPort)
	p.InPort = int32(inPort)
	p.ViaVOQ = false
	p.HopCount++

	// PFC threshold check after charging.
	if n.Cfg.PFC.Enable && !s.pausedUpstream[inPort] {
		free := n.Cfg.BufferSize - s.used
		if float64(s.ingress[inPort]) > n.Cfg.PFC.Alpha*float64(free) {
			s.pausedUpstream[inPort] = true
			s.pausedUpCount++
			s.sendCtrl(n.NewCtrl(packet.PFCPause, 0, s.node.ID, s.node.Ports[inPort].Peer), inPort)
		}
	}

	out := n.Route(s.node.ID, p.Src, p.Dst)

	// NDP cut-payload: when the egress backlog exceeds the trim
	// threshold, forward only the header in the priority class.
	if n.Cfg.NDP.Enable && !p.Trimmed && s.out[out].dataBytes() >= n.Cfg.NDP.TrimThresh {
		cut := p.Size - packet.HeaderSize
		p.Trim()
		s.release(cut, inPort)
		n.Stats.Trim()
		n.Metrics.Trims.Inc()
		s.sendCtrl2(p, out)
		return
	}

	v := s.fc.OnIngress(p, inPort, out)
	switch {
	case v.Consumed:
		return
	case v.Drop:
		s.release(p.Size, inPort)
		n.Stats.Drop()
		n.Metrics.Drops.Inc()
		n.Recycle(p)
		return
	case v.Trim:
		cut := p.Size - packet.HeaderSize
		p.Trim()
		s.release(cut, inPort) // header keeps only its own share charged
		n.Stats.Trim()
		n.Metrics.Trims.Inc()
		s.sendCtrl2(p, out) // trimmed headers ride the priority class
		return
	}
	s.enqueueData(p, out, v.Queue)
}

// enqueueData places a data packet on an egress data queue, applying
// ECN marking, and kicks the transmitter. Exposed to flow-control
// modules via InjectEgress.
func (s *Switch) enqueueData(p *packet.Packet, out, queue int) {
	o := &s.out[out]
	if queue >= len(o.data) {
		queue = len(o.data) - 1
	}
	if s.net.Cfg.ECN.Enable {
		s.maybeMark(p, out)
	}
	p.EnqueuedAt = s.net.Eng.Now()
	if s.net.frx != nil && p.Last && !p.Trimmed {
		// Stamp the egress pause-cum so dequeue can split this packet's
		// FIFO wait into queueing and PFC-blocked time.
		c := s.pauseCum[out]
		if s.pausedSelf[out] {
			c += s.net.Eng.Now().Sub(s.pauseStart[out])
		}
		p.EnqPauseCum = c
	}
	o.data[queue].push(p)
	s.notePort(out, p.Size)
	s.net.TraceEvent(trace.OpEnqueue, s.node.ID, p)
	s.kick(out)
}

// InjectEgress re-inserts a previously parked (Consumed) packet into
// an egress data queue. The module must have tracked the parked bytes
// with NotePortBytes; injection hands that accounting back.
func (s *Switch) InjectEgress(p *packet.Packet, out, queue int) {
	s.notePort(out, -p.Size)
	s.enqueueData(p, out, queue)
}

// ReleaseParked discards a parked packet, returning its buffer share.
// The module remains responsible for its own NotePortBytes accounting.
func (s *Switch) ReleaseParked(p *packet.Packet) {
	s.release(p.Size, int(p.InPort))
}

// NotePortBytes lets a module attribute parked bytes to an egress port
// for the per-port-class occupancy statistics.
func (s *Switch) NotePortBytes(out int, delta units.ByteSize) { s.notePort(out, delta) }

func (s *Switch) notePort(out int, delta units.ByteSize) {
	if out < 0 {
		return
	}
	s.portBytes[out] += delta
	class := s.node.Ports[out].Class
	s.net.Metrics.QueuedBytes[class].Add(int64(delta))
	s.net.Stats.PortBuffer(s.net.Eng.Now(), int32(s.node.ID), int32(out), class, s.portBytes[out])
}

// maybeMark applies RED-style ECN based on the egress backlog (or the
// module's override signal, whichever is larger — §8).
func (s *Switch) maybeMark(p *packet.Packet, out int) {
	q := s.out[out].dataBytes()
	if sig := s.fc.QueueSignal(p, out); sig > q {
		q = sig
	}
	cfg := &s.net.Cfg.ECN
	switch {
	case q < cfg.KMin:
		return
	case q >= cfg.KMax:
		p.ECN = true
		s.net.Metrics.ECNMarks.Inc()
	default:
		prob := cfg.PMax * float64(q-cfg.KMin) / float64(cfg.KMax-cfg.KMin)
		if s.rnd.Float64() < prob {
			p.ECN = true
			s.net.Metrics.ECNMarks.Inc()
		}
	}
}

// sendCtrl enqueues a control frame on the priority queue of a port.
func (s *Switch) sendCtrl(p *packet.Packet, out int) {
	s.out[out].ctrl.push(p)
	s.kick(out)
}

// SendCtrl lets flow-control modules emit control frames (credits,
// switchSYNs, pauses) on a port's priority queue.
func (s *Switch) SendCtrl(p *packet.Packet, out int) { s.sendCtrl(p, out) }

// sendCtrl2 is sendCtrl for frames that still carry data-buffer
// accounting (NDP trimmed headers stay charged until transmitted).
func (s *Switch) sendCtrl2(p *packet.Packet, out int) {
	p.EnqueuedAt = s.net.Eng.Now()
	s.out[out].ctrl.push(p)
	s.notePort(out, p.Size)
	s.kick(out)
}

// charge/release maintain shared-buffer and ingress accounting.
func (s *Switch) charge(b units.ByteSize, inPort int) {
	s.used += b
	s.ingress[inPort] += b
	s.net.Stats.SwitchBuffer(int32(s.node.ID), s.used)
}

func (s *Switch) release(b units.ByteSize, inPort int) {
	s.used -= b
	if inPort >= 0 {
		s.ingress[inPort] -= b
	}
	s.net.Stats.SwitchBuffer(int32(s.node.ID), s.used)
	if s.net.Cfg.PFC.Enable && s.pausedUpCount > 0 {
		s.maybeResumeUpstream()
	}
}

func (s *Switch) maybeResumeUpstream() {
	free := s.net.Cfg.BufferSize - s.used
	limit := s.net.Cfg.PFC.Alpha * float64(free) * s.net.Cfg.PFC.ResumeFraction
	for i, paused := range s.pausedUpstream {
		if !paused {
			continue
		}
		if float64(s.ingress[i]) <= limit || s.ingress[i] == 0 {
			s.pausedUpstream[i] = false
			s.pausedUpCount--
			s.sendCtrl(s.net.NewCtrl(packet.PFCResume, 0, s.node.ID, s.node.Ports[i].Peer), i)
		}
	}
}

// pauseSelf/resumeSelf react to PFC frames from the peer of port i.
func (s *Switch) pauseSelf(i int) {
	if s.pausedSelf[i] {
		return
	}
	s.pausedSelf[i] = true
	s.pauseStart[i] = s.net.Eng.Now()
	s.net.Metrics.PFCPauses.Inc()
	s.net.Metrics.PFCPortsPaused.Add(1)
}

func (s *Switch) resumeSelf(i int) {
	if !s.pausedSelf[i] {
		return
	}
	s.pausedSelf[i] = false
	s.pauseCum[i] += s.net.Eng.Now().Sub(s.pauseStart[i])
	s.net.Stats.PFCPaused(s.node.Layer, s.net.Eng.Now().Sub(s.pauseStart[i]))
	s.net.Metrics.PFCPortsPaused.Add(-1)
	s.kick(i)
}

// finalizePFC closes pause intervals still open at the end of a run.
func (s *Switch) finalizePFC() {
	for i, paused := range s.pausedSelf {
		if paused {
			s.pauseCum[i] += s.net.Eng.Now().Sub(s.pauseStart[i])
			s.net.Stats.PFCPaused(s.node.Layer, s.net.Eng.Now().Sub(s.pauseStart[i]))
			s.pauseStart[i] = s.net.Eng.Now()
		}
	}
}

// kick starts the transmitter of port i if idle and something is
// eligible to send.
func (s *Switch) kick(i int) {
	o := &s.out[i]
	if o.busy {
		return
	}
	p, queue := s.pick(i)
	if p == nil {
		return
	}
	s.transmit(p, i, queue)
}

// pick chooses the next frame: control strictly first; then, unless
// PFC-paused, the data queues in round-robin order (skipping paused
// queues — BFC).
func (s *Switch) pick(i int) (*packet.Packet, int) {
	o := &s.out[i]
	if !o.ctrl.empty() {
		return o.ctrl.pop(), -1
	}
	if s.pausedSelf[i] {
		return nil, -1
	}
	nq := len(o.data)
	for k := 0; k < nq; k++ {
		qi := (o.rr + k) % nq
		q := &o.data[qi]
		if q.paused || q.empty() {
			continue
		}
		o.rr = (qi + 1) % nq
		return q.pop(), qi
	}
	return nil, -1
}

// PauseQueue marks a data queue paused/unpaused (BFC) and kicks.
func (s *Switch) PauseQueue(out, queue int, paused bool) {
	s.out[out].data[queue].paused = paused
	if !paused {
		s.kick(out)
	}
}

// QueueBytes reports the backlog of one egress data queue.
func (s *Switch) QueueBytes(out, queue int) units.ByteSize { return s.out[out].data[queue].size() }

// PortBacklog reports the summed data backlog of an egress port.
func (s *Switch) PortBacklog(out int) units.ByteSize { return s.out[out].dataBytes() }

// transmit serialises p on port i and schedules its arrival.
func (s *Switch) transmit(p *packet.Packet, i, queue int) {
	n := s.net
	o := &s.out[i]
	now := n.Eng.Now()
	isData := p.Kind == packet.Data // trimmed headers keep Kind Data

	if isData {
		// Queuing-time attribution (non-incast data only, per Fig 11b).
		if p.Cat != packet.CatIncast {
			n.Stats.QueueDelay(o.tp.Class, now.Sub(p.EnqueuedAt))
			n.Metrics.QueueDelay.Observe(int64(now.Sub(p.EnqueuedAt)))
		}
		s.fc.OnDequeue(p, i, queue)
		if n.frx != nil && p.Last && !p.Trimmed {
			// Final-segment hop attribution. The port cannot be paused at a
			// data dequeue (pick skips paused ports), so pauseCum[i] is
			// closed and the PFC overlap is its advance since enqueue.
			wait := now.Sub(p.EnqueuedAt)
			n.frx.Hop(p.Flow, wait, s.pauseCum[i]-p.EnqPauseCum, units.TxTime(p.Size, o.tp.Rate))
		}
		if n.Cfg.INT && !p.Trimmed {
			q := s.out[i].dataBytes()
			if sig := s.fc.QueueSignal(p, i); sig > q {
				q = sig
			}
			p.AddInt(packet.IntHop{TxBytes: o.txBytes, QLen: q, TS: now, LinkRate: o.tp.Rate})
		}
	}

	o.busy = true
	o.txBytes += p.Size
	n.Stats.OnWire(now, wireClass(p.Kind), p.Size)
	if isData {
		n.TraceEvent(trace.OpTx, s.node.ID, p)
	}

	ser := units.TxTime(p.Size, o.tp.Rate)
	o.pendSize = p.Size
	o.pendInPort = int(p.InPort)
	o.pendCharged = isData
	if isData {
		s.notePort(i, -p.Size)
	}
	n.Eng.AfterArg(ser, txDoneFn, o)

	// Loss injection between switches: data and credits at LossRate,
	// credits additionally at CreditLossRate (Fig 12's isolated stress).
	if lr := s.lossRateFor(p.Kind); lr > 0 && s.PortFacesSwitch(i) && s.rnd.Float64() < lr {
		n.dropOnWire(s.node.ID, p)
		return
	}
	// Fault plane: dead links swallow everything, burst-lossy links
	// advance their Gilbert–Elliott chain (see faults.go).
	if n.faults != nil && n.linkDropped(s.node.ID, i, p.Kind) {
		n.dropOnWire(s.node.ID, p)
		return
	}
	o.wire.push(now.Add(ser+o.tp.Prop), p)
}

func (s *Switch) lossRateFor(k packet.Kind) float64 {
	switch k {
	case packet.Data:
		return s.net.Cfg.LossRate
	case packet.Credit, packet.SwitchSYN:
		if s.net.Cfg.CreditLossRate > s.net.Cfg.LossRate {
			return s.net.Cfg.CreditLossRate
		}
		return s.net.Cfg.LossRate
	}
	return 0
}

func wireClass(k packet.Kind) stats.WireClass {
	switch k {
	case packet.Data:
		return stats.WireData
	case packet.Credit, packet.SwitchSYN:
		return stats.WireCredit
	default:
		return stats.WireCtrl
	}
}
