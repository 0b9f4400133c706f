package core

import (
	"testing"

	"floodgate/internal/packet"
)

// TestChanTable checks the credit-channel table against a map oracle
// through several doublings, with sequential and strided NodeIDs
// (hosts of one rack are consecutive, one host per rack is strided).
func TestChanTable(t *testing.T) {
	var tab chanTable
	if tab.get(3) != nil {
		t.Fatal("empty table returned a channel")
	}
	want := map[packet.NodeID]*downChan{}
	for i := 0; i < 300; i++ {
		for _, dst := range []packet.NodeID{packet.NodeID(i), packet.NodeID(100000 + 81*i)} {
			ch := &downChan{}
			tab.put(dst, ch)
			want[dst] = ch
		}
		if 4*tab.n > 3*len(tab.slots) {
			t.Fatalf("load %d/%d above 3/4", tab.n, len(tab.slots))
		}
	}
	//lint:allow maprange order-independent check of every oracle entry
	for dst, ch := range want {
		if got := tab.get(dst); got != ch {
			t.Fatalf("get(%d) = %p, want %p", dst, got, ch)
		}
	}
	for _, dst := range []packet.NodeID{300, 99999, 100000 + 81*300, 100001} {
		if tab.get(dst) != nil {
			t.Fatalf("get(%d) found a channel never put", dst)
		}
	}
}
