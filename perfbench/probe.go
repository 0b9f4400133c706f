package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"floodgate/internal/cc"
	"floodgate/internal/core"
	"floodgate/internal/device"
	"floodgate/internal/packet"
	"floodgate/internal/units"
)

// probe observes one run from outside the simulator, through the two
// plug-in points a Scheme exposes: the congestion-control factory
// (cc.Factory, called once per registered flow) and the flow-control
// factory (device.FCFactory, called once per switch).
//
// Untraced, only the CC factory is wrapped, and only to stamp the set-up
// boundary: the call that registers the last flow. The controllers it
// returns are the real ones, so the event loop runs unobserved.
//
// Traced, every controller and every Floodgate module is wrapped in a
// counting, timing forwarder. The first CC factory call ends device
// construction, the last one ends flow registration, and the first and
// last wrapped calls bracket the event loop. Runs use one engine, so
// plain fields suffice.
type probe struct {
	traced bool
	clk    clock // started with the run
	flows  int   // CC factory calls expected: one per registered flow

	factoryCalls    int
	ccFirst, ccLast time.Duration // first and last CC factory call
	allocFirst      uint64        // heap bytes allocated at ccFirst
	allocLast       uint64        // heap bytes allocated at ccLast

	started         bool
	evFirst, evLast time.Duration // first and last wrapped simulator call

	ingress, parked, ctrl int64
	coreBusy              time.Duration
	coreDepth             int
	modules               []*core.Module

	ccCalls, cnps int64
	ccBusy        time.Duration
	ccDepth       int
}

func (p *probe) now() time.Duration { return p.clk.since() }

// clock measures host time from its start. It is the benchmark's only
// wall-clock reader; the simulation itself never sees it.
type clock struct{ start time.Time }

func startClock() clock {
	//lint:allow walltime host-time measurement of a run, outside the simulation
	return clock{time.Now()}
}

func (c clock) since() time.Duration {
	//lint:allow walltime host-time measurement of a run, outside the simulation
	return time.Since(c.start)
}

// wrapCC returns the factory the run uses in place of inner.
func (p *probe) wrapCC(inner cc.Factory) cc.Factory {
	return func(e cc.Env) cc.Controller {
		p.factoryCalls++
		if p.traced && p.factoryCalls == 1 {
			p.ccFirst = p.now()
			p.allocFirst = heapAllocated()
		}
		if p.factoryCalls == p.flows {
			p.ccLast = p.now()
			if p.traced {
				p.allocLast = heapAllocated()
			}
		}
		c := inner(e)
		if !p.traced {
			return c
		}
		return &ccProbe{c: c, p: p}
	}
}

// wrapFC returns the factory the traced run uses in place of inner.
// Every module must be Floodgate's, whose accessors the report reads.
func (p *probe) wrapFC(inner device.FCFactory) device.FCFactory {
	return func(sw *device.Switch) device.FlowControl {
		m, ok := inner(sw).(*core.Module)
		if !ok {
			panic(fmt.Sprintf("perfbench: switch %d has no Floodgate module", sw.Node().ID))
		}
		p.modules = append(p.modules, m)
		return &fcProbe{m: m, p: p}
	}
}

// observe marks a simulator call into a wrapped plug-in.
func (p *probe) observe() {
	if !p.started {
		p.started = true
		p.evFirst = p.now()
	}
}

// enter and leave time a call; nested calls into the same layer (a
// module re-entered through its switch) are counted once.
func (p *probe) enter(depth *int) time.Duration {
	p.observe()
	*depth++
	if *depth > 1 {
		return -1
	}
	return p.now()
}

func (p *probe) leave(depth *int, t0 time.Duration, busy *time.Duration) {
	*depth--
	if t0 < 0 {
		return
	}
	t1 := p.now()
	p.evLast = t1
	*busy += t1 - t0
}

// fcProbe forwards device.FlowControl, plus the optional Restarter and
// StallReporter extensions, to one Floodgate module.
type fcProbe struct {
	m *core.Module
	p *probe
}

func (f *fcProbe) OnIngress(pk *packet.Packet, inPort, outPort int) device.Verdict {
	t0 := f.p.enter(&f.p.coreDepth)
	v := f.m.OnIngress(pk, inPort, outPort)
	f.p.ingress++
	if v.Consumed {
		f.p.parked++
	}
	f.p.leave(&f.p.coreDepth, t0, &f.p.coreBusy)
	return v
}

func (f *fcProbe) OnCtrl(pk *packet.Packet, inPort int) bool {
	t0 := f.p.enter(&f.p.coreDepth)
	ok := f.m.OnCtrl(pk, inPort)
	f.p.ctrl++
	f.p.leave(&f.p.coreDepth, t0, &f.p.coreBusy)
	return ok
}

func (f *fcProbe) OnDequeue(pk *packet.Packet, outPort, queue int) {
	t0 := f.p.enter(&f.p.coreDepth)
	f.m.OnDequeue(pk, outPort, queue)
	f.p.leave(&f.p.coreDepth, t0, &f.p.coreBusy)
}

func (f *fcProbe) QueueSignal(pk *packet.Packet, outPort int) units.ByteSize {
	t0 := f.p.enter(&f.p.coreDepth)
	q := f.m.QueueSignal(pk, outPort)
	f.p.leave(&f.p.coreDepth, t0, &f.p.coreBusy)
	return q
}

func (f *fcProbe) Restart() { f.m.Restart() }

func (f *fcProbe) StallReport() device.StallInfo { return f.m.StallReport() }

// ccProbe forwards cc.Controller. The getters are counted but not
// timed: a clock read would cost more than the call it measures.
type ccProbe struct {
	c cc.Controller
	p *probe
}

func (c *ccProbe) Rate() units.BitRate {
	c.p.observe()
	c.p.ccCalls++
	return c.c.Rate()
}

func (c *ccProbe) Window() units.ByteSize {
	c.p.observe()
	c.p.ccCalls++
	return c.c.Window()
}

func (c *ccProbe) OnAck(now units.Time, ack *packet.Packet, rtt units.Duration) {
	t0 := c.p.enter(&c.p.ccDepth)
	c.c.OnAck(now, ack, rtt)
	c.p.ccCalls++
	c.p.leave(&c.p.ccDepth, t0, &c.p.ccBusy)
}

func (c *ccProbe) OnCNP(now units.Time) {
	t0 := c.p.enter(&c.p.ccDepth)
	c.c.OnCNP(now)
	c.p.ccCalls++
	c.p.cnps++
	c.p.leave(&c.p.ccDepth, t0, &c.p.ccBusy)
}

func (c *ccProbe) OnSend(now units.Time, bytes units.ByteSize) {
	t0 := c.p.enter(&c.p.ccDepth)
	c.c.OnSend(now, bytes)
	c.p.ccCalls++
	c.p.leave(&c.p.ccDepth, t0, &c.p.ccBusy)
}

// Runtime counters read through runtime/metrics.
const (
	mGOGC      = "/gc/gogc:percent"
	mLiveBytes = "/gc/heap/live:bytes"
	mGCCycles  = "/gc/cycles/total:gc-cycles"
	mGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
)

func readMetric(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

// heapAllocated is the cumulative heap allocation in bytes. Unlike
// runtime/metrics, ReadMemStats flushes the per-P allocation caches, so
// small deltas are exact.
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func liveHeap() uint64 { return readMetric(mLiveBytes).Uint64() }

// gcCounters is a reading of the collector's cumulative work.
type gcCounters struct {
	cycles uint64
	cpu    float64
}

func readGC() gcCounters {
	return gcCounters{cycles: readMetric(mGCCycles).Uint64(), cpu: readMetric(mGCCPU).Float64()}
}
