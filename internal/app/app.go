// Package app is the deterministic closed-loop application plane: a
// partition-aggregate / request-response RPC layer on top of the
// device flow machinery. A client issues a request by fanning small
// request flows out to N workers; each worker answers with a response
// flow back to the client, and the request completes when a quorum of
// distinct workers have replied. Every request carries an application
// deadline; on expiry the client consults a pluggable RetryPolicy
// (fixed, exponential backoff with deterministic jitter, hedging at
// the p95 of observed latency), spends from a retry budget, and a
// per-client circuit breaker sheds load when the timeout rate crosses
// a threshold.
//
// The plane exists because incast is born here: the response fan-in IS
// the incast, and a timeout-driven retry re-joins the very incast that
// caused it. Closing the loop lets the simulator report what users saw
// (p99/p999 request latency, timeout rate, retry amplification) next
// to the FCT tables.
//
// Determinism: every attempt flow is pre-registered
// (Network.AddAppFlow) in a fixed order before SealFlows, so FlowIDs
// never depend on runtime behaviour; timers run at the PriTimer rung;
// and backoff jitter is drawn from per-client PRNG streams derived
// from (seed, client node ID), never from a shared source. See
// DESIGN.md §12 for the full argument.
package app

import (
	"floodgate/internal/device"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// Breaker configures the per-client circuit breaker. The zero value
// disables it.
type Breaker struct {
	// Window is the number of recent attempt outcomes tracked per
	// client (0 disables the breaker).
	Window int
	// Threshold is the timeout fraction over a full window that opens
	// the breaker.
	Threshold float64
	// Cooldown is how long an open breaker sheds new requests before
	// closing again.
	Cooldown units.Duration
}

// Enabled reports whether the breaker is configured.
func (b Breaker) Enabled() bool { return b.Window > 0 }

// Config describes one closed-loop workload. The zero value is not
// runnable: Requests, Interval and Deadline must be set.
type Config struct {
	// Requests is the number of closed-loop requests to issue.
	Requests int
	// Interval spaces request arrivals (request i arrives at i·Interval).
	Interval units.Duration
	// Clients is the number of distinct client (aggregator) hosts,
	// taken from the tail of the host list and assigned round-robin
	// (default 1 — the classic single incast victim).
	Clients int
	// FanIn is the number of workers per request (partition-aggregate
	// width); 1 models a memcached-style request/response pair.
	FanIn int
	// Quorum is the number of distinct worker replies that complete a
	// request (0 = all FanIn of them).
	Quorum int
	// ReqSize is the per-worker request flow size (default 1 KB).
	ReqSize units.ByteSize
	// RespMin/RespMax bound the per-worker response size, drawn
	// uniformly at generation time (default 30–40 MTU, the paper's
	// incast flow size).
	RespMin, RespMax units.ByteSize
	// Deadline is the application deadline of each attempt window.
	Deadline units.Duration
	// MaxAttempts bounds the attempts per request, including the first
	// (default 3).
	MaxAttempts int
	// RetryBudget caps retries (and hedges) per client across the run;
	// 0 means unlimited.
	RetryBudget int
	// Policy governs retry timing (default FixedRetry{0}: immediate).
	Policy RetryPolicy
	// Breaker configures load shedding (zero value: disabled).
	Breaker Breaker
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Clients < 1 {
		c.Clients = 1
	}
	if c.FanIn < 1 {
		c.FanIn = 1
	}
	if c.ReqSize <= 0 {
		c.ReqSize = units.KB
	}
	if c.RespMin <= 0 {
		c.RespMin = 30 * packet.MTU
	}
	if c.RespMax < c.RespMin {
		c.RespMax = c.RespMin + 10*packet.MTU
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = 3
	}
	if c.Policy == nil {
		c.Policy = FixedRetry{}
	}
	return c
}

// Request binds one closed-loop request to concrete hosts.
type Request struct {
	Client   packet.NodeID
	Workers  []packet.NodeID
	Arrival  units.Time
	RespSize []units.ByteSize // per worker, fixed across attempts
	Quorum   int              // replies needed (clamped to len(Workers))
}

// GenerateRequests pre-generates the request schedule: clients rotate
// over the Config.Clients hosts just before the last one — the last
// host is the canonical open-loop incast destination throughout the
// experiment suite, so clients are its rack mates: their cross-rack
// responses are exactly the victim traffic an untamed incast's PFC
// storm head-of-line blocks. Workers are a fresh random subset of the
// hosts outside the client's rack, and response sizes are drawn
// uniformly from [RespMin, RespMax]. Deterministic given (topology,
// config, seed).
func GenerateRequests(tp *topo.Topology, cfg Config, seed uint64) []Request {
	cfg = cfg.withDefaults()
	r := sim.NewRand(seed)
	nc := cfg.Clients
	if nc > len(tp.Hosts)-1 {
		nc = len(tp.Hosts) - 1
	}
	if nc < 1 {
		nc = 1
	}
	clients := tp.Hosts[len(tp.Hosts)-1-nc : len(tp.Hosts)-1]
	if len(tp.Hosts) == 1 {
		clients = tp.Hosts
	}
	reqs := make([]Request, 0, cfg.Requests)
	for i := 0; i < cfg.Requests; i++ {
		client := clients[i%nc]
		senders := workload.CrossRackSenders(tp, client)
		fan := cfg.FanIn
		if fan > len(senders) {
			fan = len(senders)
		}
		perm := r.Perm(len(senders))
		workers := make([]packet.NodeID, fan)
		sizes := make([]units.ByteSize, fan)
		for w := 0; w < fan; w++ {
			workers[w] = senders[perm[w]]
			sizes[w] = cfg.RespMin + units.ByteSize(r.Int63n(int64(cfg.RespMax-cfg.RespMin)+1))
		}
		q := cfg.Quorum
		if q <= 0 || q > fan {
			q = fan
		}
		reqs = append(reqs, Request{
			Client: client, Workers: workers,
			Arrival:  units.Time(int64(i) * int64(cfg.Interval)),
			RespSize: sizes, Quorum: q,
		})
	}
	return reqs
}

// role decodes what one app flow is for.
type role struct {
	req    int32
	worker int16
	resp   bool
	peer   *device.Flow // on request flows: the response to launch on completion
}

// Dispatch is the immutable flow→role table built at registration
// time and read by the Plane.
type Dispatch struct {
	Cfg  Config
	Reqs []Request

	base     packet.FlowID
	roles    []role
	attempts [][][]*device.Flow // [req][attempt-1][worker] request flows
}

// Build registers every possible attempt flow on the network — for
// each request, MaxAttempts × FanIn request/response pairs — in a
// fixed global order, and returns the dispatch table. Must run after
// all open-loop RegisterFlow calls and before SealFlows. The flows are
// deferred (AddAppFlow): unused attempts never launch and cost only
// their registration.
func Build(n *device.Network, reqs []Request, cfg Config) *Dispatch {
	cfg = cfg.withDefaults()
	d := &Dispatch{Cfg: cfg, Reqs: reqs}
	d.attempts = make([][][]*device.Flow, len(reqs))
	for ri, rq := range reqs {
		d.attempts[ri] = make([][]*device.Flow, cfg.MaxAttempts)
		for a := 1; a <= cfg.MaxAttempts; a++ {
			row := make([]*device.Flow, len(rq.Workers))
			for wi, w := range rq.Workers {
				fq := n.AddAppFlow(rq.Client, w, cfg.ReqSize, rq.Arrival, packet.CatVictimPFC, a)
				fr := n.AddAppFlow(w, rq.Client, rq.RespSize[wi], rq.Arrival, packet.CatIncast, a)
				if d.base == 0 {
					d.base = fq.ID
				}
				row[wi] = fq
				d.roles = append(d.roles,
					role{req: int32(ri), worker: int16(wi), peer: fr},
					role{req: int32(ri), worker: int16(wi), resp: true})
			}
			d.attempts[ri][a-1] = row
		}
	}
	return d
}

// NumRequests is the request count (the run's app completion target).
func (d *Dispatch) NumRequests() int { return len(d.Reqs) }

// roleOf resolves an app flow's role; ok is false for open-loop flows.
func (d *Dispatch) roleOf(id packet.FlowID) (role, bool) {
	i := int(id - d.base)
	if d.base == 0 || i < 0 || i >= len(d.roles) {
		return role{}, false
	}
	return d.roles[i], true
}
