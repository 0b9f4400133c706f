//lint:hotpath request arrival, deadline, retry and hedge timers fire per attempt

package app

import (
	"floodgate/internal/device"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/trace"
	"floodgate/internal/units"
)

// reqState is the client-side state machine of one request. Every
// transition runs in an engine timer (arrival, deadline, retry and
// hedge) or inside a flow-completion callback.
type reqState struct {
	pl  *Plane
	idx int32 // request index into Dispatch.Reqs
	ci  int32 // index into Plane.clients

	attempts int
	hedges   int
	timeouts int
	quorum   int
	nreplied int
	replied  []bool // per worker, distinct-reply tracking

	resolved bool
	ok       bool
	shed     bool
	start    units.Time
	end      units.Time
	respRecv units.ByteSize // response payload of counted replies
}

// clientState is one client host's retry budget, jitter stream,
// breaker and latency observations.
type clientState struct {
	node    packet.NodeID
	rng     *sim.Rand // private jitter stream: (seed, client node ID)
	retries int       // budget remaining; -1 = unlimited
	breaker breakerState
	lat     latWindow
}

func (cs *clientState) takeRetry() bool {
	if cs.retries < 0 {
		return true
	}
	if cs.retries == 0 {
		return false
	}
	cs.retries--
	return true
}

// Plane runs the application plane of one network: the client side of
// every request and the worker side of every request flow, driven by
// the read-only Dispatch table. Wire the network's completion callback
// through Plane.OnFlowDone to activate it.
type Plane struct {
	net *device.Network
	d   *Dispatch

	// OnResolve, if set, fires each time a request reaches a terminal
	// state (quorum reached, given up or shed).
	OnResolve func()

	states  []*reqState // by request index, which is arrival order
	next    int         // next arrival to inject
	clients []*clientState

	// Diagnosis counters for the stall watchdog.
	pendingReqs int // launched, unresolved
	retryTimers int // armed retry/hedge timers
}

// NewPlane builds the plane and arms its arrival chain. Call after
// Network.SealFlows.
func NewPlane(n *device.Network, d *Dispatch) *Plane {
	p := &Plane{net: n, d: d, states: make([]*reqState, len(d.Reqs))}
	cidx := make(map[packet.NodeID]int32, d.Cfg.Clients)
	for ri := range d.Reqs {
		rq := &d.Reqs[ri]
		ci, seen := cidx[rq.Client]
		if !seen {
			ci = int32(len(p.clients))
			cidx[rq.Client] = ci
			budget := -1
			if d.Cfg.RetryBudget > 0 {
				budget = d.Cfg.RetryBudget
			}
			p.clients = append(p.clients, &clientState{
				node:    rq.Client,
				rng:     sim.NewRand(n.Cfg.Seed ^ uint64(rq.Client)*0x9e3779b97f4a7c15),
				retries: budget,
				breaker: newBreakerState(d.Cfg.Breaker),
			})
		}
		rs := &reqState{
			pl: p, idx: int32(ri), ci: ci,
			quorum:  rq.Quorum,
			replied: make([]bool, len(rq.Workers)),
		}
		p.states[ri] = rs
	}
	if len(p.states) > 0 {
		n.Eng.AtArg(d.Reqs[0].Arrival, planeArriveFn, p)
	}
	return p
}

// planeArriveFn injects every request whose arrival time has come,
// then re-arms for the next one — one chained timer, like the
// open-loop flow injector but at PriTimer (arrivals are application
// events, not wire events).
func planeArriveFn(a any) {
	p := a.(*Plane)
	now := p.net.Eng.Now()
	for p.next < len(p.states) && p.d.Reqs[p.next].Arrival <= now {
		rs := p.states[p.next]
		p.next++
		p.arrive(rs, now)
	}
	if p.next < len(p.states) {
		p.net.Eng.AtArg(p.d.Reqs[p.next].Arrival, planeArriveFn, p)
	}
}

func (p *Plane) arrive(rs *reqState, now units.Time) {
	p.net.Metrics.AppRequests.Inc()
	rs.start = now
	cs := p.clients[rs.ci]
	if cs.breaker.open(now) {
		rs.resolved, rs.shed = true, true
		rs.end = now
		p.net.Metrics.AppShed.Inc()
		p.net.TraceFlow(trace.OpAppDone, cs.node, p.d.attempts[rs.idx][0][0])
		p.resolved()
		return
	}
	p.pendingReqs++
	p.launch(rs, trace.OpAppReq)
	if h, ok := p.d.Cfg.Policy.(Hedger); ok && p.d.Cfg.MaxAttempts > 1 {
		delay := h.HedgeDelay(p.d.Cfg.Deadline, cs.lat.p95(), cs.lat.n)
		p.retryTimers++
		p.net.Eng.AfterArg(delay, reqHedgeFn, rs)
	}
}

// launch fires the next attempt's request flows and, for non-hedge
// launches, arms the attempt's deadline. The invariant that keeps the
// timer logic generation-free: at most one deadline is ever pending
// per request (none during backoff), because a new attempt launches
// only from arrival or from a retry timer armed by the previous
// deadline's expiry.
func (p *Plane) launch(rs *reqState, op trace.Op) {
	rs.attempts++
	flows := p.d.attempts[rs.idx][rs.attempts-1]
	cs := p.clients[rs.ci]
	for _, f := range flows {
		p.net.TraceFlow(op, cs.node, f)
		p.net.Launch(f)
	}
	if op != trace.OpAppHedge {
		p.net.Eng.AfterArg(p.d.Cfg.Deadline, reqDeadlineFn, rs)
	}
}

// reqDeadlineFn is the application deadline of the request's most
// recent non-hedge attempt.
func reqDeadlineFn(a any) {
	rs := a.(*reqState)
	if rs.resolved {
		return
	}
	p := rs.pl
	now := p.net.Eng.Now()
	rs.timeouts++
	p.net.Metrics.AppTimeouts.Inc()
	cs := p.clients[rs.ci]
	p.net.TraceFlow(trace.OpAppTimeout, cs.node, p.d.attempts[rs.idx][rs.attempts-1][0])
	cs.breaker.record(true, now)
	if rs.attempts < p.d.Cfg.MaxAttempts && !cs.breaker.open(now) && cs.takeRetry() {
		delay := p.d.Cfg.Policy.Backoff(rs.attempts+1, cs.rng)
		p.retryTimers++
		p.net.Eng.AfterArg(delay, reqRetryFn, rs)
		return
	}
	p.resolve(rs, now, false)
}

// reqRetryFn launches the retry attempt the deadline scheduled, unless
// a quorum arrived during the backoff.
func reqRetryFn(a any) {
	rs := a.(*reqState)
	p := rs.pl
	p.retryTimers--
	if rs.resolved {
		return
	}
	p.net.Metrics.AppRetries.Inc()
	p.launch(rs, trace.OpAppRetry)
}

// reqHedgeFn races a second attempt against the still-pending first
// one. It does not re-arm the deadline — the first attempt's deadline
// stays the request's deadline.
func reqHedgeFn(a any) {
	rs := a.(*reqState)
	p := rs.pl
	p.retryTimers--
	if rs.resolved || rs.attempts != 1 || rs.attempts >= p.d.Cfg.MaxAttempts {
		return
	}
	now := p.net.Eng.Now()
	cs := p.clients[rs.ci]
	if cs.breaker.open(now) || !cs.takeRetry() {
		return
	}
	rs.hedges++
	p.net.Metrics.AppHedges.Inc()
	p.launch(rs, trace.OpAppHedge)
}

// resolve finishes a request (quorum reached or given up).
func (p *Plane) resolve(rs *reqState, now units.Time, ok bool) {
	rs.resolved, rs.ok = true, ok
	rs.end = now
	p.pendingReqs--
	cs := p.clients[rs.ci]
	if ok {
		lat := now.Sub(rs.start)
		p.net.Metrics.AppReqLatency.Observe(int64(lat))
		cs.lat.add(lat)
		cs.breaker.record(false, now)
	}
	p.net.TraceFlow(trace.OpAppDone, cs.node, p.d.attempts[rs.idx][0][0])
	p.resolved()
}

// resolved reports a request's terminal state to OnResolve.
func (p *Plane) resolved() {
	if p.OnResolve != nil {
		p.OnResolve()
	}
}

// OnFlowDone dispatches flow completions to the app plane. A completed
// request flow launches the worker's response; completed response
// flows count toward the quorum. Open-loop flows (Attempt == 0) are
// ignored.
func (p *Plane) OnFlowDone(f *device.Flow, now units.Time) {
	if f.Attempt == 0 {
		return
	}
	ro, ok := p.d.roleOf(f.ID)
	if !ok {
		return
	}
	if !ro.resp {
		// Worker side: answer with this attempt's response flow.
		p.net.Launch(ro.peer)
		return
	}
	rs := p.states[ro.req]
	p.net.Metrics.AppReplies.Inc()
	if rs.resolved || rs.replied[ro.worker] {
		return // late straggler or duplicate attempt's reply
	}
	rs.replied[ro.worker] = true
	rs.nreplied++
	rs.respRecv += f.Size
	if rs.nreplied >= rs.quorum {
		p.resolve(rs, now, true)
	}
}

// StallState reports the plane's watchdog-relevant state: launched but
// unresolved requests, armed retry/hedge timers, and breakers
// currently open.
func (p *Plane) StallState(now units.Time) (pending, retryTimers, openBreakers int) {
	for _, cs := range p.clients {
		if cs.breaker.open(now) {
			openBreakers++
		}
	}
	return p.pendingReqs, p.retryTimers, openBreakers
}
