package app

import (
	"sort"

	"floodgate/internal/sim"
	"floodgate/internal/units"
)

// RetryPolicy decides how long a client waits after a deadline expiry
// before launching the next attempt. Implementations must be pure
// functions of (attempt, r): all randomness comes from r, the calling
// client's private deterministic stream, so backoff schedules are
// bit-identical across runs and parallelism.
type RetryPolicy interface {
	// Name labels the policy in experiment tables.
	Name() string
	// Backoff returns the delay before launching attempt (>= 2).
	Backoff(attempt int, r *sim.Rand) units.Duration
}

// Hedger is the optional hedging extension of a RetryPolicy: when the
// policy implements it, every request's first attempt also arms a
// hedge timer; if the request is still unresolved when it fires (and
// budget remains), a second attempt is launched to race the first
// without waiting for the deadline.
type Hedger interface {
	// HedgeDelay returns how long after launch the hedge fires. p95 is
	// the client's observed request-latency p95 over samples completed
	// requests (0 until the first completion).
	HedgeDelay(deadline, p95 units.Duration, samples int) units.Duration
}

// FixedRetry retries after a constant delay (zero value: immediately).
type FixedRetry struct {
	Delay units.Duration
}

// Name implements RetryPolicy.
func (FixedRetry) Name() string { return "fixed" }

// Backoff implements RetryPolicy.
func (p FixedRetry) Backoff(int, *sim.Rand) units.Duration { return p.Delay }

// ExpBackoff doubles the delay per attempt with deterministic full
// jitter: attempt k waits uniformly in [d/2, d] for d = Base·2^(k-2)
// capped at Max. The jitter decorrelates the retries of clients that
// timed out on the same incast — without it they re-fire in lockstep
// and rebuild the very burst that killed attempt one.
type ExpBackoff struct {
	Base units.Duration // attempt-2 delay before jitter
	Max  units.Duration // cap (0: 8·Base)
}

// Name implements RetryPolicy.
func (ExpBackoff) Name() string { return "expbackoff" }

// Backoff implements RetryPolicy.
func (p ExpBackoff) Backoff(attempt int, r *sim.Rand) units.Duration {
	base, max := p.Base, p.Max
	if base <= 0 {
		base = 100 * units.Microsecond
	}
	if max <= 0 {
		max = 8 * base
	}
	d := base
	for k := 2; k < attempt && d < max; k++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + units.Duration(r.Int63n(int64(half)+1))
}

// Hedged races a second attempt at the client's observed p95 request
// latency (deadline/2 until enough samples accumulate); deadline
// expiries still back off exponentially via the embedded policy.
type Hedged struct {
	ExpBackoff
	// MinSamples is how many completions are needed before trusting the
	// observed p95 (default 8).
	MinSamples int
}

// Name implements RetryPolicy.
func (Hedged) Name() string { return "hedged" }

// HedgeDelay implements Hedger.
func (p Hedged) HedgeDelay(deadline, p95 units.Duration, samples int) units.Duration {
	min := p.MinSamples
	if min <= 0 {
		min = 8
	}
	if samples < min || p95 <= 0 {
		return deadline / 2
	}
	return p95
}

// latWindow is a client's sliding window of completed-request
// latencies, sized for cheap exact p95s.
type latWindow struct {
	buf [32]units.Duration
	idx int
	n   int
}

func (w *latWindow) add(d units.Duration) {
	w.buf[w.idx] = d
	w.idx = (w.idx + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
}

// p95 returns the nearest-rank p95 of the window (0 when empty). The
// sort runs over a stack copy in deterministic ring order, so the
// result depends only on the observation sequence.
func (w *latWindow) p95() units.Duration {
	if w.n == 0 {
		return 0
	}
	var tmp [32]units.Duration
	vals := tmp[:w.n]
	copy(vals, w.buf[:w.n])
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	idx := (95*w.n + 99) / 100
	if idx < 1 {
		idx = 1
	}
	return vals[idx-1]
}

// breakerState is one client's circuit breaker: a ring of recent
// attempt outcomes; when the timeout fraction over a full window
// reaches the threshold the breaker opens until now+Cooldown, and the
// plane sheds arrivals (and suppresses retries) while it is open.
type breakerState struct {
	cfg       Breaker
	outcomes  []bool // ring; true = timeout
	idx, n    int
	fails     int
	openUntil units.Time
	opened    int // cumulative open transitions
}

func newBreakerState(cfg Breaker) breakerState {
	bs := breakerState{cfg: cfg}
	if cfg.Enabled() {
		bs.outcomes = make([]bool, cfg.Window)
	}
	return bs
}

// open reports whether the breaker is shedding at time now.
func (b *breakerState) open(now units.Time) bool { return b.openUntil > now }

// record feeds one attempt outcome and opens the breaker when a full
// window's timeout fraction reaches the threshold. The ring resets on
// open so the cooldown starts from a clean slate.
func (b *breakerState) record(timeout bool, now units.Time) {
	if !b.cfg.Enabled() {
		return
	}
	if b.n == len(b.outcomes) {
		if b.outcomes[b.idx] {
			b.fails--
		}
	} else {
		b.n++
	}
	b.outcomes[b.idx] = timeout
	if timeout {
		b.fails++
	}
	b.idx = (b.idx + 1) % len(b.outcomes)
	if b.n == len(b.outcomes) && float64(b.fails) >= b.cfg.Threshold*float64(b.n) {
		b.openUntil = now.Add(b.cfg.Cooldown)
		b.opened++
		b.fails, b.n, b.idx = 0, 0, 0
		for i := range b.outcomes {
			b.outcomes[i] = false
		}
	}
}
