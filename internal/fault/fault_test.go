package fault

import (
	"math"
	"testing"

	"floodgate/internal/units"
)

func TestFlapGeneratesPairedEvents(t *testing.T) {
	l := Link{A: 3, B: 7}
	evs := Flap(l, units.Time(units.Millisecond), units.Duration(100*units.Microsecond), units.Duration(500*units.Microsecond), 3)
	if len(evs) != 6 {
		t.Fatalf("flap produced %d events, want 6", len(evs))
	}
	for i := 0; i < 3; i++ {
		down, up := evs[2*i], evs[2*i+1]
		if down.Kind != LinkDown || up.Kind != LinkUp {
			t.Fatalf("cycle %d: kinds %v/%v, want link-down/link-up", i, down.Kind, up.Kind)
		}
		if up.At.Sub(down.At) != units.Duration(100*units.Microsecond) {
			t.Fatalf("cycle %d: down for %v, want 100us", i, up.At.Sub(down.At))
		}
		if down.Link != l || up.Link != l {
			t.Fatalf("cycle %d: wrong link", i)
		}
	}
	if got := evs[2].At.Sub(evs[0].At); got != units.Duration(500*units.Microsecond) {
		t.Fatalf("flap period %v, want 500us", got)
	}
	plan := &Plan{Events: evs}
	if err := plan.Validate(); err != nil {
		t.Fatalf("flap plan failed validation: %v", err)
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
	}{
		{"negative time", Plan{Events: []Event{{At: -1, Kind: LinkDown, Link: Link{A: 1, B: 2}}}}},
		{"degenerate link", Plan{Events: []Event{{Kind: LinkUp, Link: Link{A: 4, B: 4}}}}},
		{"unknown kind", Plan{Events: []Event{{Kind: Kind(99)}}}},
		{"burst prob out of range", Plan{Burst: &GilbertElliott{PGoodBad: 1.5}}},
		{"negative burst prob", Plan{Burst: &GilbertElliott{PBadGood: -0.1}}},
		{"NaN burst prob", Plan{Burst: &GilbertElliott{PGoodBad: math.NaN()}}},
		{"NaN burst loss", Plan{Burst: &GilbertElliott{LossBad: math.NaN()}}},
		{"degenerate burst link", Plan{Burst: &GilbertElliott{}, BurstLinks: []Link{{A: 2, B: 2}}}},
	}
	for _, c := range cases {
		if err := c.plan.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid plan", c.name)
		}
	}
	empty := &Plan{}
	if err := empty.Validate(); err != nil {
		t.Errorf("empty plan rejected: %v", err)
	}
}

func TestSortedEventsStable(t *testing.T) {
	p := &Plan{Events: []Event{
		{At: 30, Kind: SwitchRestart, Node: 1},
		{At: 10, Kind: LinkDown, Link: Link{A: 1, B: 2}},
		{At: 10, Kind: LinkUp, Link: Link{A: 3, B: 4}},
	}}
	evs := p.SortedEvents()
	if evs[0].Kind != LinkDown || evs[1].Kind != LinkUp || evs[2].Kind != SwitchRestart {
		t.Fatalf("unexpected order: %v %v %v", evs[0].Kind, evs[1].Kind, evs[2].Kind)
	}
	// Original slice untouched.
	if p.Events[0].Kind != SwitchRestart {
		t.Fatal("SortedEvents mutated the plan")
	}
}

func TestBurstWithMeanLossStationaryRate(t *testing.T) {
	for _, mean := range []float64{0.02, 0.05, 0.10, 0.20} {
		g := BurstWithMeanLoss(mean)
		// Stationary Bad probability from the balance equation.
		pi := g.PGoodBad / (g.PGoodBad + g.PBadGood)
		got := pi*g.LossBad + (1-pi)*g.LossGood
		if math.Abs(got-mean) > 1e-12 {
			t.Errorf("mean %v: stationary loss %v", mean, got)
		}
		if g.PGoodBad < 0 || g.PGoodBad > 1 || g.PBadGood < 0 || g.PBadGood > 1 {
			t.Errorf("mean %v: probabilities out of range: %+v", mean, g)
		}
	}
}

func TestBurstWithMeanLossPanicsOutOfRange(t *testing.T) {
	for _, bad := range []float64{0, -0.1, 0.5, 0.9, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BurstWithMeanLoss(%v) did not panic", bad)
				}
			}()
			BurstWithMeanLoss(bad)
		}()
	}
}

func TestBurstApplies(t *testing.T) {
	p := &Plan{Burst: BurstWithMeanLoss(0.05), BurstLinks: []Link{{A: 1, B: 2}}}
	if !p.BurstApplies(1, 2) || !p.BurstApplies(2, 1) {
		t.Error("burst should cover the named link in both orientations")
	}
	if p.BurstApplies(1, 3) {
		t.Error("burst leaked onto an unlisted link")
	}
	all := &Plan{Burst: BurstWithMeanLoss(0.05)}
	if !all.BurstApplies(9, 10) {
		t.Error("empty BurstLinks should cover every offered link")
	}
	none := &Plan{}
	if none.BurstApplies(1, 2) {
		t.Error("nil Burst should cover nothing")
	}
}
