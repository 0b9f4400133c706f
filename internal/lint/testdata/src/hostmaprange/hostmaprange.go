// Package hostmaprange exercises the per-host map rule: maps keyed by
// packet.NodeID/FlowID scale with the fabric, and ranging one into a
// deterministic sink leaks randomized order exactly where a 100k-host
// run amplifies it. The rule is independent of the generic maprange
// allowlist: an order-independent-reduction claim on the loop does not
// license the sink write. It is also structural, not taint-based, so
// it composes with detwrite — each catches cases the other cannot.
package hostmaprange

import (
	"floodgate/internal/packet"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// ReportBuffers leaks per-host map order into the stats collector —
// the generic maprange rule, the per-host rule and detwrite all fire.
func ReportBuffers(col *stats.Collector, occ map[packet.NodeID]units.ByteSize) {
	for _, b := range occ {
		col.SwitchBuffer(b)
	}
}

// ReportAllowedGeneric shows the rules are independent: the generic
// maprange allow (an order-independence claim about the loop) does not
// suppress the per-host finding about the sink write.
func ReportAllowedGeneric(col *stats.Collector, occ map[packet.NodeID]units.ByteSize) {
	for _, b := range occ { //lint:allow maprange fixture: claims an order-independent reduction, which does not cover the sink write
		col.SwitchBuffer(b)
	}
}

// CountPaused shows what the structural rule catches that detwrite's
// argument taint cannot: the sink arguments are constants, so no
// tainted value flows in — but the per-host rule still flags the loop,
// and the allow must argue order independence of the sink write itself
// (here: every iteration performs the identical write, so only the
// count reaches the collector).
func CountPaused(col *stats.Collector, paused map[packet.NodeID]bool) {
	//lint:allow hostmaprange fixture: every iteration performs the identical sink write, so only the count is observable
	for range paused { //lint:allow maprange fixture: loop body is element-independent, order cannot matter
		col.PFCPaused(topo.LayerToR, units.Microsecond)
	}
}

// ReportOrdered is the fix used across the tree: fabric-sized state is
// carried in slices indexed by node (or alongside a deterministic key
// slice), and the map is only ever indexed, never ranged, at the sink.
func ReportOrdered(col *stats.Collector, nodes []packet.NodeID, occ map[packet.NodeID]units.ByteSize) {
	for _, n := range nodes {
		col.SwitchBuffer(occ[n])
	}
}

// SumBytes ranges a per-host map without touching a sink: only the
// generic rule applies (allowlisted as a reduction), the per-host rule
// stays quiet.
func SumBytes(occ map[packet.NodeID]units.ByteSize) units.ByteSize {
	var total units.ByteSize
	//lint:allow maprange fixture demonstrates an order-independent reduction
	for _, b := range occ {
		total += b
	}
	return total
}
