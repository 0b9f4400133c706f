package forensics

import (
	"strings"
	"testing"

	"floodgate/internal/units"
)

const us = units.Duration(units.Microsecond)

func tm(n int64) units.Time { return units.Time(units.Duration(n) * us) }

// TestFlowStateTiling pins the sender-state machine: intervals close on
// transition into the component of the state being left, same-state
// calls are no-ops, and host-pause overlap is carved out of sendable
// time using the pause accumulator.
func TestFlowStateTiling(t *testing.T) {
	r := NewRecorder()
	r.Seal(2)
	// Sendable [0,4), then window-limited [4,10), then sendable again
	// [10,12), done (open net interval, never closed).
	r.FlowState(1, SendSendable, tm(0), 0)
	r.FlowState(1, SendSendable, tm(2), 0) // same-state no-op
	r.FlowState(1, SendWindow, tm(4), 0)
	r.FlowState(1, SendSendable, tm(10), 0)
	r.FlowState(1, SendNet, tm(12), 0)
	a := r.acc(1)
	if got := a.comp[CompSerialization]; got != 6*us {
		t.Errorf("serialization = %v, want 6us", got)
	}
	if got := a.comp[CompWindow]; got != 6*us {
		t.Errorf("window = %v, want 6us", got)
	}
	if got := a.comp[CompRTO]; got != 0 {
		t.Errorf("open net interval attributed: rto = %v", got)
	}
}

// TestFlowStatePauseOverlap: PFC pause time accrued while nominally
// sendable is reattributed from serialization to host_pause via the
// cumulative pause clock.
func TestFlowStatePauseOverlap(t *testing.T) {
	r := NewRecorder()
	r.Seal(2)
	// Sendable [0,10) during which the egress port was paused 3us.
	r.FlowState(1, SendSendable, tm(0), 0)
	r.FlowState(1, SendNet, tm(10), 3*us)
	a := r.acc(1)
	if a.comp[CompSerialization] != 7*us || a.comp[CompHostPause] != 3*us {
		t.Errorf("serialization/pause = %v/%v, want 7us/3us", a.comp[CompSerialization], a.comp[CompHostPause])
	}
	// Overlap clamps to the interval length even if the pause clock
	// advanced more (stale stamp).
	r.FlowState(1, SendSendable, tm(10), 0)
	r.FlowState(1, SendNet, tm(12), 99*us)
	if a.comp[CompHostPause] != 5*us || a.comp[CompSerialization] != 7*us {
		t.Errorf("clamped pause = %v serialization = %v, want 5us/7us", a.comp[CompHostPause], a.comp[CompSerialization])
	}
}

// TestFlowStateRtxWaste: a closed net interval means the flow went
// back to sending after it thought it was done — retransmission waste.
func TestFlowStateRtxWaste(t *testing.T) {
	r := NewRecorder()
	r.Seal(2)
	r.FlowState(1, SendNet, tm(0), 0)
	r.FlowState(1, SendSendable, tm(5), 0) // RTO rewound the sender
	a := r.acc(1)
	if a.comp[CompRTO] != 5*us {
		t.Errorf("rto = %v, want 5us", a.comp[CompRTO])
	}
}

// TestHopSplitsPFC pins the per-hop split: PFC-paused time comes out
// of the wait, clamped to it, and transmit time lands in
// serialization.
func TestHopSplitsPFC(t *testing.T) {
	r := NewRecorder()
	r.Seal(2)
	r.Hop(1, 10*us, 4*us, us)
	a := r.acc(1)
	if a.comp[CompQueue] != 6*us || a.comp[CompPFC] != 4*us || a.comp[CompSerialization] != us {
		t.Errorf("queue/pfc/ser = %v/%v/%v", a.comp[CompQueue], a.comp[CompPFC], a.comp[CompSerialization])
	}
	// Clamp: pause beyond the wait attributes the whole wait to PFC.
	r.Hop(1, 2*us, 50*us, 0)
	if a.comp[CompPFC] != 6*us || a.comp[CompQueue] != 6*us {
		t.Errorf("clamped pfc/queue = %v/%v, want 6us/6us", a.comp[CompPFC], a.comp[CompQueue])
	}
}

// TestUnparkedSplit: only the flow's last segment feeds the budget
// (VOQ wait minus credit flight), but parked time accumulates for
// every segment.
func TestUnparkedSplit(t *testing.T) {
	r := NewRecorder()
	r.Seal(2)
	r.Unparked(1, false, 10*us, 3*us) // mid-flow segment: parked only
	r.Unparked(1, true, 8*us, 2*us)   // final segment: voq 6, credit 2
	a := r.acc(1)
	if a.parked != 18*us {
		t.Errorf("parked = %v, want 18us", a.parked)
	}
	if a.comp[CompVOQ] != 6*us || a.comp[CompCredit] != 2*us {
		t.Errorf("voq/credit = %v/%v, want 6us/2us", a.comp[CompVOQ], a.comp[CompCredit])
	}
	// Credit flight clamps to the parked interval.
	r.Unparked(1, true, 4*us, 99*us)
	if a.comp[CompCredit] != 6*us || a.comp[CompVOQ] != 6*us {
		t.Errorf("clamped credit/voq = %v/%v, want 6us/6us", a.comp[CompCredit], a.comp[CompVOQ])
	}
}

// TestEpisodeLifecycle pins open/park/close: peak bytes and the
// deduplicated victim list accumulate while open; EndAll closes every
// episode at one switch (restart path) without map iteration order
// leaking into the result.
func TestEpisodeLifecycle(t *testing.T) {
	r := NewRecorder()
	r.Seal(4)
	r.EpisodeStart(7, 100, tm(1))
	r.EpisodeStart(7, 100, tm(2)) // already open: no-op
	r.Parked(7, 100, 1, 3000)
	r.Parked(7, 100, 2, 5000)
	r.Parked(7, 100, 1, 4000) // dup victim, higher peak
	r.EpisodeEnd(7, 100, tm(9))
	r.EpisodeEnd(7, 100, tm(11)) // already closed: no-op
	if len(r.episodes) != 1 {
		t.Fatalf("episodes = %d, want 1", len(r.episodes))
	}
	ep := r.episodes[0]
	if ep.Start != tm(1) || ep.End != tm(9) {
		t.Errorf("episode interval [%v, %v], want [1us, 9us]", ep.Start, ep.End)
	}
	if ep.PeakParked != 5000 {
		t.Errorf("peak parked = %d, want 5000", ep.PeakParked)
	}
	if len(ep.Victims) != 2 {
		t.Errorf("victims = %v, want exactly flows 1 and 2", ep.Victims)
	}

	// Episodes are per (switch, dst): ending switch 7's leaves 8's open.
	r.EpisodeStart(7, 200, tm(20))
	r.EpisodeStart(8, 200, tm(21))
	r.EpisodeEnd(7, 200, tm(30))
	var open7, open8 int
	for i := range r.episodes {
		if !r.episodes[i].Open() {
			continue
		}
		switch r.episodes[i].Switch {
		case 7:
			open7++
		case 8:
			open8++
		}
	}
	if open7 != 0 || open8 != 1 {
		t.Errorf("open episodes after ending (7, 200): sw7=%d sw8=%d, want 0/1", open7, open8)
	}
}

// TestBuildReportSortsEpisodes: the report carries each flow's
// accumulated components, episodes sort by (Start, Switch, Dst, End)
// with sorted victims, and the wire residual closes each done flow's
// budget to exactly its FCT.
func TestBuildReportSortsEpisodes(t *testing.T) {
	r := NewRecorder()
	r.Seal(2)
	r.FlowState(1, SendSendable, tm(0), 0)
	r.FlowState(1, SendNet, tm(4), 0) // 4us serialization
	r.Hop(1, 3*us, us, us)            // queue 2, pfc 1, ser 1
	r.Unparked(1, true, 2*us, us)     // voq 1, credit 1
	r.EpisodeStart(9, 50, tm(2))
	r.EpisodeEnd(9, 50, tm(6))
	r.EpisodeStart(3, 50, tm(2)) // same start, lower switch id: sorts first
	r.EpisodeEnd(3, 50, tm(7))

	metas := []FlowMeta{{ID: 1, Src: 10, Dst: 50, Size: 3000, Start: tm(0), Finish: tm(12), Done: true}}
	rep := BuildReport(r, metas)
	if len(rep.Flows) != 1 {
		t.Fatalf("flows = %d", len(rep.Flows))
	}
	fb := rep.Flows[0]
	if fb.FCT != 12*us {
		t.Fatalf("fct = %v", fb.FCT)
	}
	want := map[Comp]units.Duration{
		CompSerialization: 5 * us, CompQueue: 2 * us, CompPFC: us,
		CompVOQ: us, CompCredit: us, CompWire: 2 * us,
	}
	var sum units.Duration
	for c := Comp(0); c < NumComps; c++ {
		if fb.Comp[c] != want[c] {
			t.Errorf("%s = %v, want %v", c, fb.Comp[c], want[c])
		}
		sum += fb.Comp[c]
	}
	if sum != fb.FCT {
		t.Errorf("components sum to %v, FCT %v", sum, fb.FCT)
	}
	if len(rep.Episodes) != 2 || rep.Episodes[0].Switch != 3 || rep.Episodes[1].Switch != 9 {
		t.Errorf("episode order wrong: %+v", rep.Episodes)
	}
	if rep.TotalParked != 2*us {
		t.Errorf("total parked = %v, want 2us", rep.TotalParked)
	}
}

// TestQuantilesNearestRank pins the nearest-rank convention on a known
// population.
func TestQuantilesNearestRank(t *testing.T) {
	rep := &Report{}
	for i := 1; i <= 100; i++ {
		var fb FlowBudget
		fb.Done = true
		fb.Comp[CompQueue] = units.Duration(i) * us
		rep.Flows = append(rep.Flows, fb)
	}
	q := rep.ComponentQuantiles()
	if q[CompQueue].P50 != 50*us || q[CompQueue].P99 != 99*us {
		t.Errorf("p50/p99 = %v/%v, want 50us/99us", q[CompQueue].P50, q[CompQueue].P99)
	}
	if q[CompVOQ].P50 != 0 || q[CompVOQ].P99 != 0 {
		t.Errorf("untouched component quantiles non-zero: %+v", q[CompVOQ])
	}
}

// TestWriteNDJSONShape: integer-only JSON with one meta line, one line
// per flow and one per episode.
func TestWriteNDJSONShape(t *testing.T) {
	r := NewRecorder()
	r.Seal(2)
	r.FlowState(1, SendSendable, tm(0), 0)
	r.FlowState(1, SendNet, tm(4), 0)
	r.EpisodeStart(9, 50, tm(2))
	r.EpisodeEnd(9, 50, tm(6))
	rep := BuildReport(r,
		[]FlowMeta{{ID: 1, Src: 10, Dst: 50, Size: 3000, Start: tm(0), Finish: tm(8), Done: true}})
	var b strings.Builder
	if err := rep.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3 (meta, flow, episode):\n%s", len(lines), b.String())
	}
	if !strings.Contains(lines[0], `"type":"meta"`) || !strings.Contains(lines[0], `"flows":1`) {
		t.Errorf("meta line: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"serialization_ps":4000000`) || !strings.Contains(lines[1], `"fct_ps":8000000`) {
		t.Errorf("flow line: %s", lines[1])
	}
	if !strings.Contains(lines[2], `"type":"episode"`) || !strings.Contains(lines[2], `"switch":9`) {
		t.Errorf("episode line: %s", lines[2])
	}
	if strings.ContainsAny(b.String(), "eE") && strings.Contains(b.String(), "e+") {
		t.Error("float formatting leaked into NDJSON")
	}
}

// TestSummaryEmptyAndMissing: the summary degrades gracefully with no
// completed flows, and a recorder that never saw a flow id contributes
// nothing.
func TestSummaryEmpty(t *testing.T) {
	rep := BuildReport(NewRecorder(), nil)
	s := rep.Summary()
	if !strings.Contains(s, "0 flows") {
		t.Errorf("empty summary: %q", s)
	}
}

// TestComponentNames: every component has a distinct lowercase name
// (they become NDJSON keys).
func TestComponentNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Comp(0); c < NumComps; c++ {
		n := c.String()
		if n == "" || strings.ToLower(n) != n || seen[n] {
			t.Errorf("component %d name %q invalid or duplicate", c, n)
		}
		seen[n] = true
	}
}
