package core

import (
	"slices"
	"testing"

	"floodgate/internal/device"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// moduleOn wires tp with Floodgate (a 4-VOQ pool) and returns the
// module of the first switch in the given layer.
func moduleOn(t *testing.T, tp *topo.Topology, layer topo.Layer) *Module {
	t.Helper()
	cfg := DefaultConfig(14 * units.KB)
	cfg.MaxVOQs = 4
	n := device.New(device.Config{
		Topo: tp, Engine: sim.NewEngine(),
		Stats: stats.NewCollector(10 * units.Microsecond),
		FC:    New(cfg),
	})
	for _, sw := range n.Switches {
		if sw != nil && sw.Node().Layer == layer {
			return sw.FC().(*Module)
		}
	}
	t.Fatalf("no %v switch", layer)
	return nil
}

// allocIdx allocates a VOQ for each dst in turn and returns the pool
// indices handed out.
func allocIdx(m *Module, dsts ...packet.NodeID) []int {
	var got []int
	for _, d := range dsts {
		got = append(got, m.allocVOQ(d).idx)
	}
	return got
}

// TestVOQAllocationOrder pins the pool's index order, which the golden
// tables depend on through hashVOQ's candidate order: the pool is built
// on first use, hands out indices LIFO from the top of each group, and
// reuses a freed index before any untouched one — also when the switch
// restarted before it ever allocated.
func TestVOQAllocationOrder(t *testing.T) {
	t.Run("ungrouped", func(t *testing.T) {
		tp := topo.LeafSpineConfig{
			Spines: 1, ToRs: 2, HostsPerToR: 4,
			HostRate: 10 * units.Gbps, SpineRate: 40 * units.Gbps,
			Prop: 600 * units.Nanosecond,
		}.Build()
		m := moduleOn(t, tp, topo.LayerToR)
		if m.Grouped() || m.voqs != nil {
			t.Fatalf("grouped=%v, pool built before first use=%v", m.Grouped(), m.voqs != nil)
		}
		m.Restart() // before any VOQ exists
		h := tp.Hosts
		if got, want := allocIdx(m, h[0], h[1], h[2]), []int{3, 2, 1}; !slices.Equal(got, want) {
			t.Fatalf("first allocations = %v, want %v", got, want)
		}
		m.freeVOQ(m.voqOf[h[1]])
		if got, want := allocIdx(m, h[3], h[4]), []int{2, 0}; !slices.Equal(got, want) {
			t.Fatalf("after freeing 2: allocations = %v, want %v", got, want)
		}
		m.Restart()
		if got, want := allocIdx(m, h[5]), []int{3}; !slices.Equal(got, want) {
			t.Fatalf("after restart: allocation = %v, want %v", got, want)
		}
	})
	t.Run("grouped", func(t *testing.T) {
		// k=4 fat tree, 2 hosts per edge: pod p holds hosts 4p..4p+3.
		tp := topo.FatTreeConfig{K: 4, HostsPerEdge: 2, Rate: 10 * units.Gbps, Prop: 600 * units.Nanosecond}.Build()
		m := moduleOn(t, tp, topo.LayerAgg)
		if !m.Grouped() || m.voqs != nil {
			t.Fatalf("grouped=%v, pool built before first use=%v", m.Grouped(), m.voqs != nil)
		}
		m.Restart()
		pod := tp.Node(m.sw.Node().ID).Pod
		var down, up []packet.NodeID
		for _, h := range tp.Hosts {
			if tp.Node(h).Pod == pod {
				down = append(down, h)
			} else {
				up = append(up, h)
			}
		}
		// Group 0 (downstream, same pod) owns {0,1}, group 1 {2,3}.
		if got, want := allocIdx(m, down[0], up[0], down[1], up[1]), []int{1, 3, 0, 2}; !slices.Equal(got, want) {
			t.Fatalf("first allocations = %v, want %v", got, want)
		}
		m.freeVOQ(m.voqOf[up[0]])
		m.freeVOQ(m.voqOf[down[0]])
		if got, want := allocIdx(m, up[2], down[2]), []int{3, 1}; !slices.Equal(got, want) {
			t.Fatalf("after freeing 3 and 1: allocations = %v, want %v", got, want)
		}
		// Both groups exhausted: sharing stays inside the group.
		if v := m.allocVOQ(up[3]); v.group != 1 {
			t.Fatalf("upstream dst shared VOQ %d of group %d, want group 1", v.idx, v.group)
		}
		if v := m.allocVOQ(down[3]); v.group != 0 {
			t.Fatalf("downstream dst shared VOQ %d of group %d, want group 0", v.idx, v.group)
		}
		m.Restart()
		if got, want := allocIdx(m, up[0], down[0]), []int{3, 1}; !slices.Equal(got, want) {
			t.Fatalf("after restart: allocations = %v, want %v", got, want)
		}
	})
}
