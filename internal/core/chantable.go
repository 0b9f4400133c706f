package core

import "floodgate/internal/packet"

// chanTable maps destinations to one ingress port's credit channels:
// open addressing with linear probing over a power-of-two slot array,
// grown by doubling at 3/4 load. It sits on the per-packet credit path
// (two lookups per switch-to-switch hop), where a Go map cost ~3% of an
// incast-mix run's CPU and this table well under half of that. It is only
// indexed, never ranged, and never deletes: a switch restart drops the
// whole table.
type chanTable struct {
	slots []chanSlot
	n     int
}

type chanSlot struct {
	dst packet.NodeID
	ch  *downChan // nil marks an empty slot
}

// home is dst's first probe position: a multiplicative hash with its
// high bits folded down, so strided NodeIDs spread over the slots.
func (t *chanTable) home(dst packet.NodeID) int {
	h := uint32(dst) * 0x9e3779b1
	return int(h^h>>16) & (len(t.slots) - 1)
}

// get returns dst's channel, or nil.
func (t *chanTable) get(dst packet.NodeID) *downChan {
	if len(t.slots) == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.home(dst); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.ch == nil || s.dst == dst {
			return s.ch
		}
	}
}

// put inserts a channel for a dst the table does not hold yet.
func (t *chanTable) put(dst packet.NodeID, ch *downChan) {
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]chanSlot, max(8, 2*len(old)))
		t.n = 0
		for _, s := range old {
			if s.ch != nil {
				t.put(s.dst, s.ch)
			}
		}
	}
	mask := len(t.slots) - 1
	i := t.home(dst)
	for t.slots[i].ch != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = chanSlot{dst: dst, ch: ch}
	t.n++
}
