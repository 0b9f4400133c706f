// Package forensics is the simulator's causal tracing layer: it
// attributes each flow's completion time to typed wait states — where
// the time actually went — and detects per-switch incast episodes
// (window-exhaustion intervals with victim flows and peak parked
// bytes). The devices call the Recorder's hooks behind a single
// nil-check, so a disabled recorder costs one load-and-branch per hook
// site and allocates nothing; an enabled one is a plain per-flow
// accumulator array, no maps on the per-packet paths.
//
// The attribution model is a partition of a flow's lifetime:
//
//   - Sender-side states tile [Start, last send]: a flow is always in
//     exactly one of sendable (NIC arbitration + serialization),
//     paced, window-limited, paused (PFC or per-dst/per-flow pause),
//     or net (in flight, waiting on ACKs). Closed net intervals are
//     wasted journeys that ended in a retransmission (CompRTO); the
//     final open one is the delivery tail covered below.
//   - The final data segment's journey tiles [last send, Finish]:
//     per-hop egress queueing split into PFC-paused overlap and true
//     queueing, per-hop switch serialization, VOQ-parked time split
//     into credit-in-flight and window wait, and a non-negative
//     residual (CompWire) covering propagation and host-NIC
//     serialization.
//
// In a loss-free run the components therefore sum exactly to the FCT;
// with drops the clamped residual makes the sum an upper-bounded
// approximation. Everything is integer picoseconds, so reports are
// bit-identical across parallelism.
package forensics

import (
	"floodgate/internal/packet"
	"floodgate/internal/units"
)

// Comp is one component of a flow's completion-time budget.
type Comp uint8

// Budget components. CompWire is computed at report time as the
// non-negative residual FCT - sum(others); the rest accumulate online.
const (
	CompSerialization Comp = iota // NIC arbitration + per-hop switch serialization
	CompPacing                    // sender rate-limit (CC pacing timer)
	CompWindow                    // sender window/pull exhausted, waiting for ACKs
	CompHostPause                 // host NIC paused (PFC, per-dst, per-flow)
	CompQueue                     // switch egress FIFO wait (excluding PFC overlap)
	CompPFC                       // switch egress blocked by PFC while queued
	CompVOQ                       // parked in a Floodgate VOQ awaiting window
	CompCredit                    // parked with the releasing credit already in flight
	CompRTO                       // in-flight time wasted by a retransmission/RTO
	CompWire                      // residual: propagation + host NIC serialization
	NumComps
)

var compNames = [NumComps]string{
	"serialization", "pacing", "window", "host_pause", "queue",
	"pfc", "voq", "credit", "rto", "wire",
}

func (c Comp) String() string {
	if c < NumComps {
		return compNames[c]
	}
	return "comp(?)"
}

// SendState is the sender-side wait state of a flow. The states
// partition a flow's pre-delivery lifetime; every transition closes
// the previous interval into the component it maps to.
type SendState uint8

// Sender states.
const (
	SendIdle     SendState = iota // not started; interval discarded
	SendSendable                  // in the NIC send queue (arbitration/serialization)
	SendPaced                     // blocked on the CC pacing timer
	SendWindow                    // blocked on window or NDP pull credit
	SendPaused                    // blocked by a pause (per-dst, per-flow)
	SendNet                       // nothing to send; waiting on the network
)

// flowAcc is one flow's accumulator: sender-state components come
// from the source host, hop and VOQ components from the switches.
type flowAcc struct {
	comp       [NumComps]units.Duration
	parked     units.Duration // total parked time, all segments
	since      units.Time     // start of the open sender-state interval
	pauseStamp units.Duration // host pause-cum at interval start
	state      SendState
}

// Episode is one window-exhaustion interval at a switch: from the
// instant a destination's window first exhausted (VOQ allocated) to
// the instant its VOQ drained empty. End stays zero for episodes still
// open when the run stops.
type Episode struct {
	Switch     packet.NodeID
	Dst        packet.NodeID
	Start      units.Time
	End        units.Time
	PeakParked units.ByteSize  // peak parked bytes for Dst during the episode
	Victims    []packet.FlowID // flows that had a packet parked (sorted by BuildReport)

	victimSet map[packet.FlowID]struct{}
}

// Open reports whether the episode was still in progress at run end.
func (e *Episode) Open() bool { return e.End == 0 }

type epKey struct{ sw, dst packet.NodeID }

// Recorder accumulates forensic state for one run. Hooks must be
// called behind a caller-side nil check (the zero-cost disabled path);
// methods assume a non-nil receiver.
type Recorder struct {
	flows    []flowAcc // indexed by FlowID (0 unused)
	episodes []Episode
	open     map[epKey]int // (switch, dst) -> open episode index
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{flows: make([]flowAcc, 1), open: make(map[epKey]int)}
}

// Seal pre-sizes the flow table to n entries so steady-state hooks
// never grow it (call once, after the run's flows are registered).
func (r *Recorder) Seal(n int) { r.growFlows(n) }

func (r *Recorder) growFlows(n int) {
	if n <= len(r.flows) {
		return
	}
	if cap(r.flows) >= n {
		r.flows = r.flows[:n]
		return
	}
	c := 2 * cap(r.flows)
	if c < n {
		c = n
	}
	nf := make([]flowAcc, n, c)
	copy(nf, r.flows)
	r.flows = nf
}

func (r *Recorder) acc(id packet.FlowID) *flowAcc {
	if int(id) >= len(r.flows) {
		r.growFlows(int(id) + 1)
	}
	return &r.flows[id]
}

// FlowState records a sender wait-state transition at now. pauseCum is
// the host's cumulative PFC-paused duration at now; the overlap of a
// sendable interval with host PFC pauses is re-attributed from
// serialization to CompHostPause (the NIC was stopped, not busy).
func (r *Recorder) FlowState(id packet.FlowID, st SendState, now units.Time, pauseCum units.Duration) {
	a := r.acc(id)
	if a.state == st {
		return
	}
	d := now.Sub(a.since)
	switch a.state {
	case SendSendable:
		ov := pauseCum - a.pauseStamp
		if ov < 0 {
			ov = 0
		}
		if ov > d {
			ov = d
		}
		a.comp[CompSerialization] += d - ov
		a.comp[CompHostPause] += ov
	case SendPaced:
		a.comp[CompPacing] += d
	case SendWindow:
		a.comp[CompWindow] += d
	case SendPaused:
		a.comp[CompHostPause] += d
	case SendNet:
		// A closed net interval means the sender had to come back for
		// this data: the journey it was waiting on ended in a
		// retransmission. The final (open) net interval is the delivery
		// tail and is intentionally never closed.
		a.comp[CompRTO] += d
	}
	a.state = st
	a.since = now
	a.pauseStamp = pauseCum
}

// Hop records the final data segment's dequeue at one switch egress:
// wait is the full FIFO residence time, pfc the portion during which
// the egress was PFC-paused (clamped into [0, wait]), tx the switch's
// serialization time for the segment.
func (r *Recorder) Hop(id packet.FlowID, wait, pfc, tx units.Duration) {
	a := r.acc(id)
	if pfc < 0 {
		pfc = 0
	}
	if pfc > wait {
		pfc = wait
	}
	a.comp[CompQueue] += wait - pfc
	a.comp[CompPFC] += pfc
	a.comp[CompSerialization] += tx
}

// Parked records a packet entering a VOQ: episode victim/peak updates.
// parkedBytes is the destination's parked total after the park.
func (r *Recorder) Parked(sw, dst packet.NodeID, flow packet.FlowID, parkedBytes units.ByteSize) {
	i, ok := r.open[epKey{sw, dst}]
	if !ok {
		return
	}
	ep := &r.episodes[i]
	if parkedBytes > ep.PeakParked {
		ep.PeakParked = parkedBytes
	}
	if ep.victimSet == nil {
		ep.victimSet = make(map[packet.FlowID]struct{})
	}
	if _, seen := ep.victimSet[flow]; !seen {
		ep.victimSet[flow] = struct{}{}
		ep.Victims = append(ep.Victims, flow)
	}
}

// Unparked records a packet leaving a VOQ after parkedFor. flight is
// the age of the credit that released it (clamped into [0, parkedFor]:
// the packet cannot have waited on a credit sent before it parked).
// Only the flow's final segment contributes to the budget split; all
// segments contribute to the total parked time.
func (r *Recorder) Unparked(id packet.FlowID, last bool, parkedFor, flight units.Duration) {
	a := r.acc(id)
	a.parked += parkedFor
	if !last {
		return
	}
	if flight < 0 {
		flight = 0
	}
	if flight > parkedFor {
		flight = parkedFor
	}
	a.comp[CompVOQ] += parkedFor - flight
	a.comp[CompCredit] += flight
}

// EpisodeStart opens a window-exhaustion episode for (switch, dst); a
// no-op if one is already open.
func (r *Recorder) EpisodeStart(sw, dst packet.NodeID, now units.Time) {
	k := epKey{sw, dst}
	if _, ok := r.open[k]; ok {
		return
	}
	r.open[k] = len(r.episodes)
	r.episodes = append(r.episodes, Episode{Switch: sw, Dst: dst, Start: now})
}

// EpisodeEnd closes the open episode for (switch, dst), if any.
func (r *Recorder) EpisodeEnd(sw, dst packet.NodeID, now units.Time) {
	k := epKey{sw, dst}
	if i, ok := r.open[k]; ok {
		r.episodes[i].End = now
		delete(r.open, k)
	}
}
