package sim

import "floodgate/internal/units"

// Watchdog detects stalled simulations: if a monotone progress counter
// (e.g. delivered payload bytes) does not move for a full sim-time
// horizon, onStall fires once. Detection samples the counter
// watchdogTicks times per horizon, so a genuine stall is reported
// between one horizon and one horizon plus one sampling period after
// progress last advanced — precise enough that a wedged run stops
// close to its horizon, and cheap enough (a handful of events per
// horizon) to never perturb the run.
//
// The watchdog is deterministic: its ticks are ordinary engine events
// and its state depends only on the progress sequence, so arming it
// never changes a run's packet-level behaviour.
type Watchdog struct {
	eng      *Engine
	horizon  units.Duration
	period   units.Duration
	progress func() int64
	onStall  func()

	last    int64
	lastAt  units.Time // tick at which progress was last seen to move
	handle  Handle
	stopped bool
	tripped bool
}

// watchdogTicks is the number of progress samples per horizon. Four
// keeps the sampling period at or beyond the timing wheel's horizon
// for any stall horizon of at least four wheel horizons (~537 µs), so
// ticks park in the overflow heap instead of near buckets.
const watchdogTicks = 4

// NewWatchdog arms a watchdog on the engine. progress must be monotone
// non-decreasing; onStall runs inside the tick event (it may call
// Engine.Stop to terminate the run with a diagnosis).
func NewWatchdog(eng *Engine, horizon units.Duration, progress func() int64, onStall func()) *Watchdog {
	if horizon <= 0 {
		panic("sim: watchdog horizon must be positive")
	}
	w := &Watchdog{eng: eng, horizon: horizon, period: horizon / watchdogTicks, progress: progress, onStall: onStall}
	if w.period <= 0 {
		w.period = horizon
	}
	w.last = progress()
	w.lastAt = eng.Now()
	w.handle = eng.AfterArg(w.period, watchdogTickFn, w)
	return w
}

// watchdogTickFn is the capture-free tick callback.
func watchdogTickFn(a any) { a.(*Watchdog).tick() }

func (w *Watchdog) tick() {
	if w.stopped || w.tripped {
		return
	}
	now := w.eng.Now()
	if cur := w.progress(); cur != w.last {
		w.last, w.lastAt = cur, now
	} else if now.Sub(w.lastAt) >= w.horizon {
		w.tripped = true
		if w.onStall != nil {
			w.onStall()
		}
		return
	}
	w.handle = w.eng.AfterArg(w.period, watchdogTickFn, w)
}

// Stop disarms the watchdog (call when the run completes normally, so
// a pending tick draining after Engine.Stop cannot trip it).
func (w *Watchdog) Stop() {
	w.stopped = true
	w.eng.Cancel(w.handle)
}

// Tripped reports whether the watchdog fired.
func (w *Watchdog) Tripped() bool { return w.tripped }
