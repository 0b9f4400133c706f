package sim

import (
	"testing"

	"floodgate/internal/units"
)

// TestWatchdogTripsOnStall proves a run with no progress terminates via
// the watchdog instead of running to the time bound.
func TestWatchdogTripsOnStall(t *testing.T) {
	eng := NewEngine()
	var progress int64
	stalled := false
	w := NewWatchdog(eng, 100*units.Microsecond, func() int64 { return progress }, func() {
		stalled = true
		eng.Stop()
	})
	// Busywork events that never advance progress.
	var spin func(any)
	spin = func(any) { eng.After(units.Microsecond, func() { spin(nil) }) }
	spin(nil)
	eng.Run(units.Time(units.Second))
	if !stalled || !w.Tripped() {
		t.Fatal("watchdog did not trip on a stalled run")
	}
	if now := eng.Now(); now > units.Time(250*units.Microsecond) {
		t.Fatalf("watchdog tripped too late: %v", now)
	}
}

// TestWatchdogStaysQuietWithProgress proves steady progress never trips
// it, and Stop disarms the pending tick (which would otherwise fire —
// and trip — once progress ends).
func TestWatchdogStaysQuietWithProgress(t *testing.T) {
	eng := NewEngine()
	var progress int64
	w := NewWatchdog(eng, 50*units.Microsecond, func() int64 { return progress }, func() {
		t.Error("watchdog tripped despite progress")
	})
	var step func(any)
	step = func(any) {
		progress++
		if progress < 100 {
			eng.After(10*units.Microsecond, func() { step(nil) })
		}
	}
	step(nil)
	// Progress advances every 10us until t=990us; stop just past it,
	// while the watchdog still has a pending (re-armed) tick.
	eng.Run(units.Time(995 * units.Microsecond))
	w.Stop()
	eng.RunAll() // the canceled tick must not fire here
	if w.Tripped() {
		t.Fatal("watchdog tripped")
	}
}

// TestWatchdogTripsAfterProgressEnds proves the trip comes only once
// progress ceases, one horizon later plus at most one sampling period.
func TestWatchdogTripsAfterProgressEnds(t *testing.T) {
	eng := NewEngine()
	var progress int64
	var trippedAt units.Time
	w := NewWatchdog(eng, 100*units.Microsecond, func() int64 { return progress }, func() {
		trippedAt = eng.Now()
		eng.Stop()
	})
	var step func(any)
	step = func(any) {
		progress++
		if progress < 10 {
			eng.After(10*units.Microsecond, func() { step(nil) })
		}
	}
	step(nil)
	// Keep the event loop alive well past the stall point.
	var spin func(any)
	spin = func(any) { eng.After(units.Microsecond, func() { spin(nil) }) }
	spin(nil)
	eng.Run(units.Time(units.Second))
	if !w.Tripped() {
		t.Fatal("watchdog never tripped")
	}
	// Progress stops at t=90us; the trip must land one horizon later,
	// plus at most one sampling period: (190us, 215us].
	if trippedAt <= units.Time(190*units.Microsecond) || trippedAt > units.Time(215*units.Microsecond) {
		t.Fatalf("tripped at %v, want within (190us, 215us]", trippedAt)
	}
}
