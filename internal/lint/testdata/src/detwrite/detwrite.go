// Package detwrite exercises the nondeterministic-write taint rule:
// values tainted by map order, wall clock, runtime shape or pointer
// identity must not reach stats or metrics.
package detwrite

import (
	"runtime"
	"unsafe"

	"floodgate/internal/device"
	"floodgate/internal/metrics"
	"floodgate/internal/stats"
	"floodgate/internal/units"
)

// RecordSizes folds per-flow rows into the collector in map iteration
// order — the order taints what each bin records.
func RecordSizes(c *stats.Collector, sizes map[uint64]units.ByteSize) {
	for id, size := range sizes {
		c.FlowDone(id, 0, size, 0, 0, 0)
	}
}

// Shape leaks the host's parallelism into a gauge.
func Shape(g metrics.Gauge) {
	g.Set(int64(runtime.GOMAXPROCS(0)))
}

// Identity observes a pointer's address — run-varying identity.
func Identity(h metrics.Histogram, f *device.Flow) {
	h.Observe(int64(uintptr(unsafe.Pointer(f))))
}

// Fold is the sanctioned shape: an order-independent reduction over a
// map, then one deterministic write. The commutative accumulation does
// not taint total.
func Fold(c *stats.Collector, sizes map[uint64]units.ByteSize) {
	var total units.ByteSize
	for _, size := range sizes { //lint:allow maprange order-independent sum; one write after the loop
		total += size
	}
	c.SwitchBuffer(0, total)
}
