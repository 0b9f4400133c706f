package exp

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// This file is the run-level parallel executor. Every experiment's
// simulations are independent — Run is a pure function of (RunConfig,
// seed) with a private engine, collector, packet pool and RNG — so
// figures submit their runs to a shared worker pool and assemble
// output strictly in submission order. The tables produced are
// bit-identical to the serial path at any parallelism: workers share
// nothing mutable (see TestSharedNothing), and ordering only matters
// at assembly, which is sequential by construction.
//
// Shared-state audit (asserted by TestSharedNothing and the
// determinism test in parallel_test.go):
//
//   - workload.CDF values (Memcached, WebServer, ...) are written only
//     at package init; Sample/Quantile/Mean read Pts and never write.
//   - topo.Topology is immutable after Build(): routing tables and
//     ports are precomputed in freeze(), and the device layer only
//     takes pointers into them (switch.go keeps *topo.Port for rates).
//     Figures may therefore share one built topology across concurrent
//     runs (e.g. Fig13 reuses tp for all three schemes).
//   - Scheme factory closures (cc.Factory, device.FCFactory) capture
//     only value-type configs; each Run invokes them to mint private
//     per-flow / per-switch state.
//   - The one mutable package variable, windowOverride, is test-only
//     and set before any runs start.

// limiter is a resizable counting semaphore. All simulation fan-out in
// this package draws from one instance, so nested parallelism —
// whole experiments overlapped by floodsim -exp all, each fanning out
// its own runs — cannot oversubscribe the machine: at most `max`
// simulations execute at any moment, process-wide.
type limiter struct {
	mu   sync.Mutex
	cond *sync.Cond
	max  int
	used int
}

func newLimiter() *limiter {
	l := &limiter{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// resize raises (never lowers below in-use) the concurrency cap.
func (l *limiter) resize(max int) {
	l.mu.Lock()
	if max > l.max {
		l.max = max
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

func (l *limiter) acquire() {
	l.mu.Lock()
	for l.used >= l.max {
		l.cond.Wait()
	}
	l.used++
	l.mu.Unlock()
}

func (l *limiter) release() {
	l.mu.Lock()
	l.used--
	l.cond.Signal()
	l.mu.Unlock()
}

// simSlots is the process-wide simulation pool. Experiment
// orchestration (building tables, reducing collectors) runs outside
// it; only the per-run jobs hold a slot.
var simSlots = newLimiter()

// parallelism resolves the Options knob: 0 means every core
// (GOMAXPROCS), 1 reproduces the serial path exactly (jobs run inline
// on the calling goroutine, no pool involved), n > 1 caps the pool.
func (o Options) parallelism() int {
	if o.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

// runJobs executes job(0..n-1) on the shared pool and returns the
// results indexed by submission order. With parallelism 1 (or a single
// job) everything runs inline on the caller's goroutine — byte-for-byte
// the serial path. Each job must build its own topology, workload and
// scheme; nothing may be written to shared state (see the audit above).
func runJobs[T any](o Options, n int, job func(i int) T) []T {
	out := make([]T, n)
	par := o.parallelism()
	if par <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			out[i] = job(i)
		}
		return out
	}
	simSlots.resize(par)
	// A panicking job must not crash the process from its worker
	// goroutine (unrecoverable) nor deadlock the WaitGroup: each worker
	// recovers, the panic is stored, and after every job settles the
	// lowest-index panic re-raises on the calling goroutine — the same
	// panic the serial path would have raised first, independent of
	// worker scheduling. The experiment boundary (runByID) recovers it.
	panics := make([]any, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panics[i] = v
				}
			}()
			simSlots.acquire()
			defer simSlots.release()
			out[i] = job(i)
		}(i)
	}
	wg.Wait()
	for i := range panics {
		if panics[i] != nil {
			panic(panics[i])
		}
	}
	return out
}

// RunMany executes independent simulation runs across the worker pool
// and returns results by submission index. Parallelism comes from the
// first config's Options; 1 degenerates to a serial loop. Output is
// bit-identical to calling Run in a loop regardless of parallelism.
func RunMany(rcs []RunConfig) []*RunResult {
	if len(rcs) == 0 {
		return nil
	}
	return runJobs(rcs[0].Opt.norm(), len(rcs), func(i int) *RunResult {
		return Run(rcs[i])
	})
}

// RunExperiments executes the given experiments, overlapping their
// simulations through the same shared pool, and streams each
// experiment's tables to emit strictly in the order given (paper
// order for floodsim -exp all). With parallelism 1 experiments run
// one after another exactly as before. emit is always called from the
// calling goroutine.
func RunExperiments(ids []string, o Options, emit func(id string, tables []Table, err error)) {
	o = o.norm()
	if o.parallelism() <= 1 {
		for _, id := range ids {
			tables, err := runByID(id, o)
			emit(id, tables, err)
		}
		return
	}
	type outcome struct {
		tables []Table
		err    error
	}
	done := make([]chan outcome, len(ids))
	for i, id := range ids {
		done[i] = make(chan outcome, 1)
		go func(id string, ch chan outcome) {
			tables, err := runByID(id, o)
			ch <- outcome{tables, err}
		}(id, done[i])
	}
	for i, id := range ids {
		r := <-done[i]
		emit(id, r.tables, r.err)
	}
}

// recoveredPanics counts panics converted into errors at the
// experiment boundary (observability for tests and operators).
var recoveredPanics atomic.Int64

// RecoveredPanics reports how many experiment runs panicked and were
// isolated into errors instead of crashing the process.
func RecoveredPanics() int64 { return recoveredPanics.Load() }

// runByID is the isolation boundary: a panic anywhere inside one
// experiment — a faulting Run (already wrapped as *RunError with the
// run's config hash) or the figure's own assembly code — becomes that
// experiment's error, and the rest of an `-exp all` sweep proceeds.
func runByID(id string, o Options) (tables []Table, err error) {
	defer func() {
		if v := recover(); v != nil {
			recoveredPanics.Add(1)
			re, ok := v.(*RunError)
			if !ok {
				re = &RunError{ConfigHash: "experiment:" + id, Value: v, Stack: string(debug.Stack())}
			}
			tables, err = nil, re
		}
	}()
	return RunByID(id, o)
}
