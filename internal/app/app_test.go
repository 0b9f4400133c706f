package app

import (
	"testing"

	"floodgate/internal/sim"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

func testTopo() *topo.Topology {
	return topo.LeafSpineConfig{
		Spines: 2, ToRs: 4, HostsPerToR: 4,
		HostRate: 10 * units.Gbps, SpineRate: 40 * units.Gbps,
		Prop: units.Microsecond,
	}.Build()
}

// TestExpBackoffDeterministic: two forks of the same stream must
// produce the same jittered backoff sequence — the property the
// per-client jitter streams rely on for bit-identical runs.
func TestExpBackoffDeterministic(t *testing.T) {
	p := ExpBackoff{Base: 100 * units.Microsecond, Max: units.Millisecond}
	r1 := sim.NewRand(7)
	r2 := sim.NewRand(7)
	for attempt := 2; attempt <= 6; attempt++ {
		a, b := p.Backoff(attempt, r1), p.Backoff(attempt, r2)
		if a != b {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", attempt, a, b)
		}
		if a <= 0 {
			t.Fatalf("attempt %d: non-positive backoff %v", attempt, a)
		}
		if a > p.Max {
			t.Fatalf("attempt %d: backoff %v above cap %v", attempt, a, p.Max)
		}
	}
}

// TestExpBackoffGrows: the un-jittered floor (half the nominal delay)
// must grow geometrically until the cap.
func TestExpBackoffGrows(t *testing.T) {
	p := ExpBackoff{Base: 100 * units.Microsecond, Max: 10 * units.Millisecond}
	r := sim.NewRand(1)
	prev := units.Duration(0)
	for attempt := 2; attempt <= 5; attempt++ {
		d := p.Backoff(attempt, r)
		nominal := p.Base << (attempt - 2)
		if d < nominal/2 || d > nominal {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, nominal/2, nominal)
		}
		if d <= prev/4 {
			t.Fatalf("attempt %d: backoff %v collapsed vs previous %v", attempt, d, prev)
		}
		prev = d
	}
}

// TestFixedRetryIgnoresRand: the fixed policy must not consume the
// jitter stream (its delay is attempt- and rand-independent, so a nil
// stream is fine).
func TestFixedRetryIgnoresRand(t *testing.T) {
	p := FixedRetry{Delay: 50 * units.Microsecond}
	if d := p.Backoff(2, nil); d != 50*units.Microsecond {
		t.Fatalf("fixed backoff = %v, want 50us", d)
	}
}

// TestHedgedDelay: below the sample floor the hedge fires at half the
// deadline; with enough samples it tracks the observed p95.
func TestHedgedDelay(t *testing.T) {
	p := Hedged{}
	dl := 400 * units.Microsecond
	if d := p.HedgeDelay(dl, 123*units.Microsecond, 2); d != dl/2 {
		t.Fatalf("cold hedge delay = %v, want %v", d, dl/2)
	}
	if d := p.HedgeDelay(dl, 123*units.Microsecond, 50); d != 123*units.Microsecond {
		t.Fatalf("warm hedge delay = %v, want observed p95", d)
	}
}

// TestBreakerOpensAndCoolsDown drives the ring through a failure
// burst: it must stay closed until a full window is observed, open at
// the threshold, shed during the cooldown, and admit again after.
func TestBreakerOpensAndCoolsDown(t *testing.T) {
	cfg := Breaker{Window: 4, Threshold: 0.75, Cooldown: units.Millisecond}
	b := newBreakerState(cfg)
	now := units.Time(0)
	for i := 0; i < 3; i++ {
		b.record(true, now)
		if b.open(now) {
			t.Fatalf("breaker opened before a full window (after %d outcomes)", i+1)
		}
	}
	b.record(true, now)
	if !b.open(now) {
		t.Fatal("breaker closed after 4/4 timeouts at threshold 0.75")
	}
	if b.opened != 1 {
		t.Fatalf("opened count = %d, want 1", b.opened)
	}
	if b.open(now.Add(cfg.Cooldown)) {
		t.Fatal("breaker still open after the cooldown elapsed")
	}
	// The ring reset on open: a lone success must not re-open it.
	b.record(false, now.Add(cfg.Cooldown))
	if b.open(now.Add(cfg.Cooldown)) {
		t.Fatal("breaker re-opened on a success after reset")
	}
}

// TestBreakerBelowThresholdStaysClosed: 2/4 timeouts under a 0.75
// threshold never opens.
func TestBreakerBelowThresholdStaysClosed(t *testing.T) {
	b := newBreakerState(Breaker{Window: 4, Threshold: 0.75, Cooldown: units.Millisecond})
	pattern := []bool{true, false, true, false, true, false, true, false}
	for _, timeout := range pattern {
		b.record(timeout, 0)
	}
	if b.open(0) {
		t.Fatal("breaker opened at 50% timeout rate against a 75% threshold")
	}
}

// TestGenerateRequests pins the schedule's structural invariants: the
// canonical incast destination (last host) is never a client, workers
// are distinct hosts outside the client's rack, arrivals are spaced by
// Interval, and the same (topo, config, seed) regenerates the same
// schedule.
func TestGenerateRequests(t *testing.T) {
	tp := testTopo()
	cfg := Config{
		Requests: 8, Interval: 100 * units.Microsecond,
		Clients: 2, FanIn: 4, Quorum: 3,
		Deadline: units.Millisecond,
	}
	reqs := GenerateRequests(tp, cfg, 42)
	if len(reqs) != 8 {
		t.Fatalf("got %d requests, want 8", len(reqs))
	}
	stormDst := tp.Hosts[len(tp.Hosts)-1]
	for i, rq := range reqs {
		if rq.Client == stormDst {
			t.Fatalf("request %d: client is the canonical incast destination", i)
		}
		if rq.Arrival != units.Time(int64(i)*int64(cfg.Interval)) {
			t.Fatalf("request %d: arrival %v, want Interval-spaced", i, rq.Arrival)
		}
		if len(rq.Workers) != 4 || rq.Quorum != 3 {
			t.Fatalf("request %d: fan %d quorum %d, want 4/3", i, len(rq.Workers), rq.Quorum)
		}
		crack := tp.Node(rq.Client).Rack
		seen := map[int64]bool{}
		for _, w := range rq.Workers {
			if seen[int64(w)] {
				t.Fatalf("request %d: duplicate worker %v", i, w)
			}
			seen[int64(w)] = true
			if tp.Node(w).Rack == crack {
				t.Fatalf("request %d: worker %v in the client's rack", i, w)
			}
		}
		if len(rq.RespSize) != len(rq.Workers) {
			t.Fatalf("request %d: %d sizes for %d workers", i, len(rq.RespSize), len(rq.Workers))
		}
	}
	again := GenerateRequests(tp, cfg, 42)
	for i := range reqs {
		if reqs[i].Client != again[i].Client || reqs[i].Workers[0] != again[i].Workers[0] ||
			reqs[i].RespSize[0] != again[i].RespSize[0] {
			t.Fatalf("request %d: same seed regenerated a different schedule", i)
		}
	}
}

// TestQuorumClamp: a zero or over-fan quorum defaults to all workers.
func TestQuorumClamp(t *testing.T) {
	tp := testTopo()
	cfg := Config{Requests: 1, Interval: units.Microsecond, FanIn: 4, Quorum: 99,
		Deadline: units.Millisecond}
	reqs := GenerateRequests(tp, cfg, 1)
	if reqs[0].Quorum != len(reqs[0].Workers) {
		t.Fatalf("quorum %d not clamped to fan %d", reqs[0].Quorum, len(reqs[0].Workers))
	}
}

// TestLatWindowP95: nearest-rank p95 over the ring.
func TestLatWindowP95(t *testing.T) {
	var w latWindow
	for i := 1; i <= 20; i++ {
		w.add(units.Duration(i) * units.Microsecond)
	}
	if got := w.p95(); got != 19*units.Microsecond {
		t.Fatalf("p95 of 1..20us = %v, want 19us", got)
	}
}
