//lint:hotpath every OnIngress/OnDequeue call is per packet; scheduling must not allocate closures

package core

import (
	"encoding/binary"
	"hash/crc32"

	"floodgate/internal/device"
	"floodgate/internal/forensics"
	"floodgate/internal/metrics"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/topo"
	"floodgate/internal/trace"
	"floodgate/internal/units"
)

// Module is one switch's Floodgate instance. It implements
// device.FlowControl.
type Module struct {
	cfg Config
	sw  *device.Switch

	// Upstream role: per-destination sending windows.
	wins map[packet.NodeID]*dstWin

	// Downstream role: credit generation per (ingress port, dst).
	// Rows are minted lazily (host-facing ports never credit) and sized
	// by node count so the per-packet lookup is two array indexes.
	down      [][]*downChan     // per ingress port, indexed by dst NodeID
	pending   [][]packet.NodeID // per ingress port: dsts with pending credits (insertion order)
	timerArm  []bool            // per ingress port: credit timer scheduled
	tickArgs  []tickArg         // per ingress port: pre-built AfterArg payloads
	facesSw   []bool            // port peer is a switch
	facesHost []bool

	// VOQ pool.
	voqs    []*voq
	voqOf   map[packet.NodeID]*voq
	free    []int // free voq indices per group: [0]=down, [1]=up (or all in [0])
	freeUp  []int
	inUse   int
	grouped bool

	// Per-dst host pause bookkeeping (first-hop ToRs).
	pausedHosts map[packet.NodeID]map[packet.NodeID]bool // dst -> set of paused hosts

	maxWins int // peak window-table size (§7.4 memory overhead)

	// epoch is the module's boot generation, stamped onto every
	// forwarded data packet. A switch restart advances it, letting
	// downstream switches detect the PSN rebase and resynchronize
	// instead of crediting a phantom gap. resyncs counts how often this
	// switch detected an upstream restart.
	epoch   uint32
	resyncs int

	// frx is the run's forensics recorder (nil when disabled).
	// creditSentAt/creditFrom are transients valid only inside OnCtrl's
	// credit-apply loop: drain reads them to attribute a released
	// packet's wait to credit flight time and to link the unpark back to
	// the crediting switch.
	frx          *forensics.Recorder
	creditSentAt units.Time
	creditFrom   packet.NodeID

	// Instrument handles copied from the network's NetMetrics at
	// construction (value types, nil-safe when no registry is attached).
	mWindows         metrics.Gauge
	mWindowBytes     metrics.Gauge
	mVOQsInUse       metrics.Gauge
	mParkedBytes     metrics.Gauge
	mCreditsInFlight metrics.Gauge
	mResyncs         metrics.Counter
}

// tickArg is the pre-built payload for the per-ingress-port credit
// timer, so arming it allocates nothing.
type tickArg struct {
	m  *Module
	in int
}

// creditTickFn is the capture-free credit-timer callback.
func creditTickFn(a any) {
	t := a.(*tickArg)
	t.m.creditTick(t.in)
}

// fireSYNFn is the capture-free switchSYN-timeout callback.
func fireSYNFn(a any) {
	w := a.(*dstWin)
	w.m.fireSYN(w)
}

// downChan is the downstream switch's per-channel credit state.
type downChan struct {
	cumFwd  units.ByteSize // cumulative bytes forwarded (credited basis)
	lastPSN units.ByteSize // highest upstream PSN seen (gap detection)
	pending units.ByteSize // bytes awaiting a credit packet
	epoch   uint32         // upstream boot epoch last seen (0 = first contact)
}

// dstWin is the upstream per-destination window.
type dstWin struct {
	m     *Module // owner, for the capture-free SYN callback
	dst   packet.NodeID
	init  units.ByteSize
	avail units.ByteSize
	// outstanding per egress port: sent cumulative and last credited
	// cumulative from the downstream switch.
	ports map[int]*upPort
	// switchSYN management. The deadline is lazy: every credit would
	// otherwise cancel and re-arm the engine timer (pure scheduler
	// churn, one dead entry per credit), so credits just zero the
	// deadline and the pending timer re-derives or dies when it fires.
	lastCredit  units.Time
	synTimer    sim.Handle
	synDeadline units.Time // 0 = disarmed
}

type upPort struct {
	sent    units.ByteSize
	lastCum units.ByteSize
}

// parked is one VOQ entry: the packet plus the egress port its bytes
// are attributed to (routing may steer elsewhere by drain time when a
// link failed in between; the attribution must then move).
type parked struct {
	p   *packet.Packet
	out int32
}

// voq parks packets whose destination window is exhausted.
type voq struct {
	idx    int
	group  int
	q      []parked
	bytes  units.ByteSize
	perDst map[packet.NodeID]units.ByteSize
	dsts   []packet.NodeID // destinations mapped to this VOQ
}

// New returns a device.FCFactory installing Floodgate on every switch.
func New(cfg Config) device.FCFactory {
	return func(sw *device.Switch) device.FlowControl { return newModule(cfg, sw) }
}

func newModule(cfg Config, sw *device.Switch) *Module {
	node := sw.Node()
	m := &Module{
		cfg:         cfg,
		sw:          sw,
		wins:        make(map[packet.NodeID]*dstWin),
		down:        make([][]*downChan, len(node.Ports)),
		pending:     make([][]packet.NodeID, len(node.Ports)),
		timerArm:    make([]bool, len(node.Ports)),
		tickArgs:    make([]tickArg, len(node.Ports)),
		facesSw:     make([]bool, len(node.Ports)),
		facesHost:   make([]bool, len(node.Ports)),
		voqOf:       make(map[packet.NodeID]*voq),
		pausedHosts: make(map[packet.NodeID]map[packet.NodeID]bool),
		epoch:       1,
	}
	m.frx = sw.Net().ForensicsRec()
	nm := &sw.Net().Metrics
	m.mWindows = nm.FGWindows
	m.mWindowBytes = nm.FGWindowBytes
	m.mVOQsInUse = nm.FGVOQsInUse
	m.mParkedBytes = nm.FGParkedBytes
	m.mCreditsInFlight = nm.FGCreditsInFlight
	m.mResyncs = nm.FGResyncs
	for i := range node.Ports {
		m.facesHost[i] = sw.PortFacesHost(i)
		m.facesSw[i] = !m.facesHost[i]
		m.tickArgs[i] = tickArg{m: m, in: i}
	}
	// VOQ grouping applies to middle-layer switches only (3-tier aggs),
	// which forward both upstream and windowed downstream traffic.
	m.grouped = cfg.VOQGrouping && node.Layer == topo.LayerAgg
	n := cfg.MaxVOQs
	if n <= 0 {
		n = 1
	}
	// One backing array for all VOQ structs; the perDst maps are minted
	// lazily on first park (most VOQs on most switches stay idle).
	vs := make([]voq, n)
	m.voqs = make([]*voq, n)
	for i := range m.voqs {
		vs[i].idx = i
		m.voqs[i] = &vs[i]
	}
	if m.grouped {
		for i := 0; i < n/2; i++ {
			m.voqs[i].group = 0
			m.free = append(m.free, i)
		}
		for i := n / 2; i < n; i++ {
			m.voqs[i].group = 1
			m.freeUp = append(m.freeUp, i)
		}
	} else {
		for i := 0; i < n; i++ {
			m.free = append(m.free, i)
		}
	}
	return m
}

// Window returns the remaining window for a destination (tests).
func (m *Module) Window(dst packet.NodeID) (units.ByteSize, bool) {
	w, ok := m.wins[dst]
	if !ok {
		return 0, false
	}
	return w.avail, true
}

// VOQsInUse reports the number of allocated VOQs (tests/stats).
func (m *Module) VOQsInUse() int { return m.inUse }

// Grouped reports whether this switch splits its VOQ pool by traffic
// direction (middle-layer deadlock avoidance, §4.2).
func (m *Module) Grouped() bool { return m.grouped }

// WindowDeficit sums init−avail over all windows. Once the network is
// idle and credits have settled it must be zero: any positive residue
// is leaked window, any negative residue is inflation.
func (m *Module) WindowDeficit() units.ByteSize {
	var d units.ByteSize
	//lint:allow maprange order-independent sum over the window table
	for _, w := range m.wins {
		d += w.init - w.avail
	}
	return d
}

// ---- Upstream role: OnIngress ----

// OnIngress applies per-dst window control to data packets headed for
// a switch-facing egress port.
func (m *Module) OnIngress(p *packet.Packet, inPort, outPort int) device.Verdict {
	m.checkPSNGap(p, inPort)
	if m.facesHost[outPort] {
		// Last hop: buffering here does nothing for the network (§3.2).
		return device.Verdict{}
	}
	w := m.winFor(p.Dst, outPort)
	if v, ok := m.voqOf[p.Dst]; ok {
		// Destination already identified as incast.
		m.park(v, p, outPort)
		return device.Verdict{Consumed: true}
	}
	if w.avail >= p.Size {
		m.forward(w, p, outPort)
		return device.Verdict{}
	}
	// Window exhausted: the destination is encountering incast.
	v := m.allocVOQ(p.Dst)
	m.park(v, p, outPort)
	m.armSYN(w)
	return device.Verdict{Consumed: true}
}

// forward consumes window and stamps the loss-recovery PSN (plus the
// boot epoch so a downstream switch can tell a restart from a gap).
func (m *Module) forward(w *dstWin, p *packet.Packet, outPort int) {
	w.avail -= p.Size
	m.mWindowBytes.Add(int64(p.Size))
	up := w.port(outPort)
	up.sent += p.Size
	p.PSN = up.sent
	p.FGEpoch = m.epoch
	if m.cfg.EscapeTimeout > 0 {
		// Keep a timer alive while bytes are outstanding, so a credit
		// stall is eventually escaped even if the window never exhausts
		// (e.g. the very last credits of a flow are lost).
		m.armSYN(w)
	}
}

// winFor lazily initialises the per-destination window from the
// routed next-hop link (§4.2).
func (m *Module) winFor(dst packet.NodeID, outPort int) *dstWin {
	if w, ok := m.wins[dst]; ok {
		return w
	}
	port := &m.sw.Node().Ports[outPort]
	var init units.ByteSize
	if m.cfg.Mode == Ideal {
		init = units.ByteSize(m.cfg.M * float64(port.BDP()))
	} else {
		init = port.BDP() + units.BytesOver(port.Rate, m.cfg.CreditTimer)
	}
	w := &dstWin{m: m, dst: dst, init: init, avail: init, ports: make(map[int]*upPort)}
	w.lastCredit = m.now()
	m.wins[dst] = w
	m.mWindows.Add(1)
	if len(m.wins) > m.maxWins {
		m.maxWins = len(m.wins)
	}
	return w
}

// MaxWindows reports the peak number of per-destination window entries
// this switch held — the §7.4 stateful-memory figure.
func (m *Module) MaxWindows() int { return m.maxWins }

func (w *dstWin) port(i int) *upPort {
	u, ok := w.ports[i]
	if !ok {
		u = &upPort{}
		w.ports[i] = u
	}
	return u
}

// ---- VOQ management ----

// allocVOQ finds the VOQ for a newly identified incast destination:
// an empty one from the right group if available, else a CRC-32 hash
// over the allocated VOQs (§4.2).
func (m *Module) allocVOQ(dst packet.NodeID) *voq {
	group := 0
	if m.grouped && !m.sw.Net().Topo.SamePod(m.sw.Node().ID, dst) {
		group = 1
	}
	freeList := &m.free
	if group == 1 {
		freeList = &m.freeUp
	}
	var v *voq
	if len(*freeList) > 0 {
		idx := (*freeList)[len(*freeList)-1]
		*freeList = (*freeList)[:len(*freeList)-1]
		v = m.voqs[idx]
		m.inUse++
		m.mVOQsInUse.Add(1)
		m.sw.Net().Stats.VOQInUse(m.inUse)
	} else {
		// Pool exhausted: share an allocated VOQ chosen by hashing the
		// destination address.
		v = m.hashVOQ(dst, group)
	}
	v.dsts = append(v.dsts, dst)
	m.voqOf[dst] = v
	if m.frx != nil {
		m.frx.EpisodeStart(m.sw.Node().ID, dst, m.now())
	}
	return v
}

// hashVOQ picks an allocated VOQ in the group via CRC-32 of the dst.
func (m *Module) hashVOQ(dst packet.NodeID, group int) *voq {
	var candidates []*voq
	for _, v := range m.voqs {
		if len(v.dsts) > 0 && (!m.grouped || v.group == group) {
			candidates = append(candidates, v)
		}
	}
	if len(candidates) == 0 {
		// Degenerate pool (MaxVOQs too small for the group): fall back
		// to any allocated VOQ, then to index 0.
		for _, v := range m.voqs {
			if len(v.dsts) > 0 {
				candidates = append(candidates, v)
			}
		}
	}
	if len(candidates) == 0 {
		m.inUse++
		m.mVOQsInUse.Add(1)
		m.sw.Net().Stats.VOQInUse(m.inUse)
		return m.voqs[0]
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(dst))
	h := crc32.ChecksumIEEE(b[:])
	return candidates[int(h)%len(candidates)]
}

// park stores a data packet in a VOQ and accounts it against the
// egress port it will eventually use.
func (m *Module) park(v *voq, p *packet.Packet, outPort int) {
	p.ViaVOQ = true
	p.EnqueuedAt = m.now()
	v.q = append(v.q, parked{p: p, out: int32(outPort)})
	v.bytes += p.Size
	if v.perDst == nil {
		v.perDst = make(map[packet.NodeID]units.ByteSize)
	}
	v.perDst[p.Dst] += p.Size
	m.mParkedBytes.Add(int64(p.Size))
	m.sw.NotePortBytes(outPort, p.Size)
	if m.frx != nil {
		m.frx.Parked(m.sw.Node().ID, p.Dst, p.Flow, v.perDst[p.Dst])
	}
	m.sw.Net().TraceEvent(trace.OpPark, m.sw.Node().ID, p)
	m.maybeDstPause(p)
}

// drain moves VOQ head packets whose destination has window again into
// the egress queue, in FIFO order; a blocked head blocks the VOQ
// (shared-VOQ HOL, a corner the paper accepts).
func (m *Module) drain(v *voq) {
	for len(v.q) > 0 {
		e := v.q[0]
		p := e.p
		outPort := m.sw.Net().Route(m.sw.Node().ID, p.Src, p.Dst)
		w := m.winFor(p.Dst, outPort)
		if w.avail < p.Size {
			m.armSYN(w)
			return
		}
		v.q = v.q[1:]
		v.bytes -= p.Size
		v.perDst[p.Dst] -= p.Size
		m.mParkedBytes.Add(-int64(p.Size))
		if int(e.out) != outPort {
			// Routing moved while the packet was parked (a link went
			// down); move the port-occupancy attribution with it.
			m.sw.NotePortBytes(int(e.out), -p.Size)
			m.sw.NotePortBytes(outPort, p.Size)
		}
		if m.frx != nil {
			now := m.now()
			m.frx.Unparked(p.Flow, p.Last && !p.Trimmed, now.Sub(p.EnqueuedAt), now.Sub(m.creditSentAt))
		}
		m.sw.Net().TraceAux(trace.OpUnpark, m.sw.Node().ID, p, m.creditFrom)
		m.forward(w, p, outPort)
		m.sw.InjectEgress(p, outPort, 0)
		m.maybeDstResume(p.Dst)
	}
	if v.bytes == 0 {
		m.freeVOQ(v)
	}
}

// freeVOQ returns an emptied VOQ to its group's free list.
func (m *Module) freeVOQ(v *voq) {
	if len(v.dsts) == 0 {
		return
	}
	if m.frx != nil {
		now := m.now()
		for _, d := range v.dsts {
			m.frx.EpisodeEnd(m.sw.Node().ID, d, now)
		}
	}
	for _, d := range v.dsts {
		delete(m.voqOf, d)
		if m.cfg.PerDstPause {
			m.maybeDstResume(d)
		}
	}
	v.dsts = v.dsts[:0]
	v.q = nil
	clear(v.perDst)
	if m.grouped && v.group == 1 {
		m.freeUp = append(m.freeUp, v.idx)
	} else {
		m.free = append(m.free, v.idx)
	}
	m.inUse--
	m.mVOQsInUse.Add(-1)
}

// ---- Downstream role: credit generation ----

// OnDequeue records a forwarded data packet for crediting. Credits are
// owed to the upstream switch the packet arrived from; packets that
// arrived from hosts need none (§3.2).
func (m *Module) OnDequeue(p *packet.Packet, outPort, queue int) {
	in := int(p.InPort)
	if in < 0 || !m.facesSw[in] {
		return
	}
	ch := m.chanFor(in, p.Dst)
	ch.cumFwd += p.Size
	if m.cfg.Mode == Ideal {
		// Strawman: one credit per packet, immediately.
		m.emitCredit(in, p.Dst, ch)
		return
	}
	if ch.pending == 0 {
		m.pending[in] = append(m.pending[in], p.Dst)
	}
	ch.pending += p.Size
	m.armTimer(in)
}

func (m *Module) chanFor(in int, dst packet.NodeID) *downChan {
	row := m.down[in]
	if row == nil {
		row = make([]*downChan, len(m.sw.Net().Switches))
		m.down[in] = row
	}
	ch := row[dst]
	if ch == nil {
		ch = &downChan{}
		row[dst] = ch
	}
	return ch
}

// armTimer schedules the per-ingress-port credit tick if idle.
func (m *Module) armTimer(in int) {
	if m.timerArm[in] {
		return
	}
	m.timerArm[in] = true
	m.sw.Net().Eng.AfterArg(m.cfg.CreditTimer, creditTickFn, &m.tickArgs[in])
}

// creditTick emits aggregated credit packets for every destination
// pending on this ingress port, honouring delayCredit (§4.1).
func (m *Module) creditTick(in int) {
	m.timerArm[in] = false
	dsts := m.pending[in]
	if len(dsts) == 0 {
		return
	}
	// In-place filter reusing the backing array: the write index never
	// passes the read index, and keeping the capacity means steady-state
	// ticks allocate nothing.
	retained := dsts[:0]
	row := m.down[in]
	for _, d := range dsts {
		var ch *downChan
		if row != nil {
			ch = row[d]
		}
		if ch == nil || ch.pending == 0 {
			continue
		}
		// delayCredit: withhold while this destination's VOQ here is
		// overloaded — absorbing more would only build buffer.
		if v, ok := m.voqOf[d]; ok && v.perDst[d] > m.cfg.DelayCreditThresh {
			retained = append(retained, d)
			continue
		}
		m.emitCredit(in, d, ch)
	}
	m.pending[in] = retained
	if len(retained) > 0 {
		m.armTimer(in)
	}
}

// emitCredit sends one <dst, credits> pair upstream through port in.
func (m *Module) emitCredit(in int, dst packet.NodeID, ch *downChan) {
	n := m.sw.Net()
	cr := n.NewCtrl(packet.Credit, 0, m.sw.Node().ID, m.sw.Node().Ports[in].Peer)
	// Append into the pooled packet's retained Credits backing
	// (ResetKeepBuffers preserves it) instead of minting a slice.
	cr.Credits = append(cr.Credits[:0], packet.CreditEntry{Dst: dst, Bytes: ch.pending, Cum: ch.cumFwd})
	// SentAt dates the credit so the upstream can split a parked
	// packet's wait into window time and credit flight time; it is
	// stamped unconditionally (never read unless forensics is on).
	cr.SentAt = m.now()
	ch.pending = 0
	m.mCreditsInFlight.Add(1)
	n.TraceAux(trace.OpCredit, m.sw.Node().ID, cr, dst)
	m.sw.SendCtrl(cr, in)
}

// ---- Credit consumption and switchSYN (upstream role) ----

// OnCtrl intercepts Floodgate control frames.
func (m *Module) OnCtrl(p *packet.Packet, inPort int) bool {
	switch p.Kind {
	case packet.Credit:
		m.mCreditsInFlight.Add(-1)
		m.creditSentAt = p.SentAt
		m.creditFrom = m.sw.Node().Ports[inPort].Peer
		for _, e := range p.Credits {
			m.applyCredit(inPort, e)
		}
		m.creditSentAt = 0
		m.creditFrom = 0
		return true
	case packet.SwitchSYN:
		// Downstream side: the SYN carries the upstream's cumulative
		// sent count; anything we have not seen by now is presumed lost
		// (the timeout is much larger than one hop's flight time) and is
		// credited as gone, then the channel is resynced immediately.
		ch := m.chanFor(inPort, p.Dst)
		if p.PSN > ch.lastPSN {
			ch.cumFwd += p.PSN - ch.lastPSN
			ch.lastPSN = p.PSN
		}
		m.emitCredit(inPort, p.Dst, ch)
		return true
	}
	return false
}

// applyCredit resynchronises the window from the downstream cumulative
// count; byte counts in Bytes are informational (the Cum basis is what
// makes the scheme robust to credit loss, §4.3).
func (m *Module) applyCredit(port int, e packet.CreditEntry) {
	w, ok := m.wins[e.Dst]
	if !ok {
		return
	}
	up := w.port(port)
	if e.Cum <= up.lastCum {
		return // stale duplicate
	}
	up.lastCum = e.Cum
	if up.lastCum > up.sent {
		// The downstream cumulative includes bytes from before our own
		// restart (our sent counter rebased): clamp so outstanding can
		// never go negative and inflate the window.
		up.lastCum = up.sent
	}
	// Recompute availability: init minus bytes still outstanding on any
	// downstream channel.
	var outstanding units.ByteSize
	//lint:allow maprange order-independent sum of per-port outstanding bytes
	for _, u := range w.ports {
		outstanding += u.sent - u.lastCum
	}
	availOld := w.avail
	w.avail = w.init - outstanding
	m.mWindowBytes.Add(int64(availOld) - int64(w.avail))
	w.lastCredit = m.now()
	w.synDeadline = 0 // lazy disarm: the pending timer finds it and dies
	if v, ok := m.voqOf[e.Dst]; ok {
		m.drain(v)
	}
}

// armSYN starts the loss-recovery timeout for an exhausted window. The
// deadline moves; the engine timer is only scheduled when none is
// pending — a stale one (armed before the last lazy disarm) always
// fires at or before the new deadline and re-arms itself there.
func (m *Module) armSYN(w *dstWin) {
	if w.synDeadline != 0 {
		return
	}
	w.synDeadline = m.now().Add(m.cfg.SYNTimeout)
	if !w.synTimer.Active() {
		w.synTimer = m.sw.Net().Eng.AfterArg(m.cfg.SYNTimeout, fireSYNFn, w)
	}
}

func (m *Module) fireSYN(w *dstWin) {
	if w.synDeadline == 0 {
		return // disarmed since scheduling: a credit arrived
	}
	now := m.now()
	if now < w.synDeadline {
		// The timer predates the latest arm; sleep on to the true
		// deadline.
		w.synTimer = m.sw.Net().Eng.AtArg(w.synDeadline, fireSYNFn, w)
		return
	}
	w.synDeadline = 0 // due: consumed, re-set only by armSYNAgain
	if w.avail >= w.init {
		return // fully credited: nothing to recover, let the timer die
	}
	// Escape hatch: after EscapeTimeout without any credit, probe every
	// channel with sent bytes — even ones the stale-duplicate filter or
	// a restart clamp left looking synced — so a restarted downstream
	// switch cannot strand the window (see Config.EscapeTimeout).
	escape := m.cfg.EscapeTimeout > 0 && now.Sub(w.lastCredit) >= m.cfg.EscapeTimeout
	if w.avail >= packet.MTU && !escape {
		// Not exhausted and credits are recent: stay armed so a silent
		// credit stall is eventually escaped.
		m.armSYNAgain(w)
		return
	}
	n := m.sw.Net()
	// Probe every downstream channel with outstanding bytes, telling it
	// our cumulative sent count so it can write off lost bytes. Ports
	// are walked in index order to keep runs deterministic.
	probed := false
	for port := 0; port < len(m.sw.Node().Ports); port++ {
		u, ok := w.ports[port]
		if !ok {
			continue
		}
		if u.sent > u.lastCum || (escape && u.sent > 0) {
			syn := n.NewCtrl(packet.SwitchSYN, 0, m.sw.Node().ID, w.dst)
			syn.PSN = u.sent
			m.sw.SendCtrl(syn, port)
			probed = true
		}
	}
	if probed || escape {
		m.armSYNAgain(w)
	}
}

func (m *Module) armSYNAgain(w *dstWin) {
	w.synDeadline = m.now().Add(m.cfg.SYNTimeout)
	w.synTimer = m.sw.Net().Eng.AfterArg(m.cfg.SYNTimeout, fireSYNFn, w)
}

// checkPSNGap detects data lost on the upstream wire: the missing
// bytes can never be credited by forwarding, so credit them as gone.
func (m *Module) checkPSNGap(p *packet.Packet, inPort int) {
	if p.PSN == 0 || !m.facesSw[inPort] {
		return
	}
	ch := m.chanFor(inPort, p.Dst)
	if p.FGEpoch != ch.epoch {
		if ch.epoch != 0 {
			// The upstream switch restarted: its PSN sequence rebased,
			// so the usual gap arithmetic would credit a huge phantom
			// loss. Rebase the channel to just before this packet and
			// count the resync. (On first contact — epoch 0 — the
			// normal gap path below is exactly right: if *we* are the
			// freshly restarted side, it credits everything the
			// upstream had outstanding, restoring its window.)
			ch.lastPSN = p.PSN - p.Size
			m.resyncs++
			m.mResyncs.Inc()
		}
		ch.epoch = p.FGEpoch
	}
	expected := ch.lastPSN + p.Size
	if p.PSN > expected {
		lost := p.PSN - expected
		ch.cumFwd += lost
		if m.cfg.Mode == Ideal {
			m.emitCredit(inPort, p.Dst, ch)
		} else {
			if ch.pending == 0 {
				m.pending[inPort] = append(m.pending[inPort], p.Dst)
			}
			ch.pending += lost
			m.armTimer(inPort)
		}
	}
	if p.PSN > ch.lastPSN {
		ch.lastPSN = p.PSN
	}
}

// ---- Congestion-signal override (§8) ----

// QueueSignal reports the VOQ backlog sum for packets that were parked
// so ECN/INT reflect the buffering incast traffic actually sees.
func (m *Module) QueueSignal(p *packet.Packet, outPort int) units.ByteSize {
	if !p.ViaVOQ {
		return -1
	}
	var sum units.ByteSize
	for _, v := range m.voqs {
		sum += v.bytes
	}
	return sum + m.sw.PortBacklog(outPort)
}

// ---- Per-dst PAUSE (§4.3, optional host support) ----

// maybeDstPause pauses the sending host when a first-hop VOQ for its
// destination exceeds thre_off.
func (m *Module) maybeDstPause(p *packet.Packet) {
	if !m.cfg.PerDstPause {
		return
	}
	in := int(p.InPort)
	if in < 0 || !m.facesHost[in] {
		return // only first-hop ToRs pause, and only their own hosts
	}
	v := m.voqOf[p.Dst]
	if v == nil || v.perDst[p.Dst] <= m.cfg.PauseThreshOff {
		return
	}
	hosts := m.pausedHosts[p.Dst]
	if hosts == nil {
		hosts = make(map[packet.NodeID]bool)
		m.pausedHosts[p.Dst] = hosts
	}
	src := m.sw.Node().Ports[in].Peer
	if hosts[src] {
		return
	}
	hosts[src] = true
	n := m.sw.Net()
	f := n.NewCtrl(packet.DstPause, 0, m.sw.Node().ID, src)
	f.PauseDst = p.Dst
	m.sw.SendCtrl(f, in)
}

// maybeDstResume resumes paused hosts once the VOQ falls below thre_on.
func (m *Module) maybeDstResume(dst packet.NodeID) {
	if !m.cfg.PerDstPause {
		return
	}
	hosts := m.pausedHosts[dst]
	if len(hosts) == 0 {
		return
	}
	if v, ok := m.voqOf[dst]; ok && v.perDst[dst] > m.cfg.PauseThreshOn {
		return
	}
	n := m.sw.Net()
	node := m.sw.Node()
	for i := range node.Ports {
		if !m.facesHost[i] {
			continue
		}
		peer := node.Ports[i].Peer
		if hosts[peer] {
			f := n.NewCtrl(packet.DstResume, 0, node.ID, peer)
			f.PauseDst = dst
			m.sw.SendCtrl(f, i)
			delete(hosts, peer)
		}
	}
}

func (m *Module) now() units.Time { return m.sw.Net().Eng.Now() }

// ---- Fault plane hooks (device.Restarter / device.StallReporter) ----

// Restart implements device.Restarter: the switch restarted and lost
// all Floodgate soft state. Parked packets are dropped (their buffer
// share freed), windows, VOQ assignments, credit channels and pending
// credit state are forgotten, and the boot epoch advances so every
// downstream switch detects the PSN rebase on the next forwarded packet
// (checkPSNGap) instead of crediting a phantom gap. Upstream windows
// pointed at this switch recover through the normal first-contact gap
// credit plus the switchSYN/escape probes.
func (m *Module) Restart() {
	n := m.sw.Net()
	node := m.sw.Node()

	// Open incast episodes end with the VOQ state that defined them.
	if m.frx != nil {
		m.frx.EpisodeEndAll(node.ID, m.now())
	}

	// Parked packets die with the switch.
	for _, v := range m.voqs {
		for _, e := range v.q {
			m.sw.NotePortBytes(int(e.out), -e.p.Size)
			m.sw.ReleaseParked(e.p)
			m.mParkedBytes.Add(-int64(e.p.Size))
			n.Stats.Drop()
			n.Metrics.Drops.Inc()
			n.TraceEvent(trace.OpDrop, node.ID, e.p)
			n.Recycle(e.p)
		}
		v.q = nil
		v.bytes = 0
		v.dsts = v.dsts[:0]
		clear(v.perDst)
	}
	m.mVOQsInUse.Add(-int64(m.inUse))
	if m.inUse > 0 {
		m.sw.Net().Stats.VOQInUse(0)
	}
	m.inUse = 0
	m.free = m.free[:0]
	m.freeUp = m.freeUp[:0]
	if m.grouped {
		half := len(m.voqs) / 2
		for i := 0; i < half; i++ {
			m.free = append(m.free, i)
		}
		for i := half; i < len(m.voqs); i++ {
			m.freeUp = append(m.freeUp, i)
		}
	} else {
		for i := range m.voqs {
			m.free = append(m.free, i)
		}
	}
	clear(m.voqOf)

	// Windows: cancel loss-recovery timers and drop the table.
	var occupied int64
	//lint:allow maprange order-independent teardown: summing deficits and cancelling timers
	for _, w := range m.wins {
		occupied += int64(w.init - w.avail)
		n.Eng.Cancel(w.synTimer)
	}
	m.mWindowBytes.Add(-occupied)
	m.mWindows.Add(-int64(len(m.wins)))
	clear(m.wins)

	// Downstream credit state: channels and pending credits are gone.
	// Stale credit timers may still fire; creditTick no-ops on an empty
	// pending list, so just reset the arm flags for new traffic.
	clear(m.down)
	for i := range m.pending {
		m.pending[i] = m.pending[i][:0]
		m.timerArm[i] = false
	}

	// Per-dst pause memory is lost too; the device layer wakes the
	// hosts via its own onPeerReset nudge.
	clear(m.pausedHosts)

	m.epoch++
}

// Resyncs reports how many upstream-restart resynchronizations this
// switch performed (tests and fault reports).
func (m *Module) Resyncs() int { return m.resyncs }

// StallReport implements device.StallReporter for watchdog diagnoses.
func (m *Module) StallReport() device.StallInfo {
	si := device.StallInfo{Resyncs: m.resyncs}
	//lint:allow maprange order-independent aggregation over the window table
	for _, w := range m.wins {
		si.WindowDeficit += w.init - w.avail
		if w.avail < packet.MTU {
			si.ExhaustedWindows++
		}
	}
	for _, v := range m.voqs {
		si.ParkedBytes += v.bytes
	}
	return si
}
