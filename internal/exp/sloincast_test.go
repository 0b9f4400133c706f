package exp

import (
	"strings"
	"testing"

	"floodgate/internal/app"
	"floodgate/internal/units"
)

// TestSLOIncastParallelDeterminism extends the bit-identity guarantee
// to the closed-loop application plane: the sloincast tables —
// deadline timers, jittered retries, hedges and breaker decisions —
// render byte-identical serially and through a 4-worker pool.
func TestSLOIncastParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	windowOverride = fullIncastMixDuration / 8
	defer func() { windowOverride = 0 }()
	want := renderAll(SLOIncast(Options{Scale: 0.1, Seed: 1, Parallelism: 1}))
	if got := renderAll(SLOIncast(Options{Scale: 0.1, Seed: 1, Parallelism: 4})); got != want {
		t.Fatalf("sloincast: 4-worker output diverges from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			want, got)
	}
}

// TestSLOIncastDifferentiates is the experiment's acceptance gate at
// the scale the README quotes: under the PFC storm with a tight
// deadline, DCQCN must time out and retry (amplification above 1.00)
// while DCQCN+Floodgate resolves every request without a single
// deadline expiry. Runs the two tight fan-in-8 cells directly rather
// than the whole matrix.
func TestSLOIncastDifferentiates(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	o := Options{Scale: 0.25, Seed: 1, Parallelism: 1}.norm()
	mk := func(s Scheme) sloCell {
		return sloCell{"8", 8, "tight(1.5x)", 1.5, s,
			app.ExpBackoff{Base: o.stretch(25 * units.Microsecond)}}
	}
	dcqcn := sloRun(o, mk(DCQCN(o)))
	fg := sloRun(o, mk(WithFloodgate(o, DCQCN(o), baseBDPOf(o.leafSpine()))))

	if dcqcn.SLO.TimeoutRate == 0 {
		t.Fatal("DCQCN under the storm shows no deadline expiries; the cell is not stressed")
	}
	if dcqcn.SLO.Amplification <= 1.0 {
		t.Fatalf("DCQCN amplification = %.2f, want > 1 (retries into the storm)", dcqcn.SLO.Amplification)
	}
	if fg.SLO.TimeoutRate >= dcqcn.SLO.TimeoutRate {
		t.Fatalf("Floodgate timeout rate %.2f not below DCQCN %.2f",
			fg.SLO.TimeoutRate, dcqcn.SLO.TimeoutRate)
	}
	if fg.SLO.Completed != fg.SLO.Requests {
		t.Fatalf("Floodgate completed %d/%d requests", fg.SLO.Completed, fg.SLO.Requests)
	}
	retried := 0
	for _, r := range dcqcn.AppRecords {
		if r.Attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no DCQCN request ever launched a retry attempt")
	}
}

// TestSLOIncastSmoke runs the full experiment at smoke scale and
// checks the tables parse: both tables render, every row has the full
// column set, and the scorecard columns are well-formed.
func TestSLOIncastSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	windowOverride = fullIncastMixDuration / 8
	defer func() { windowOverride = 0 }()
	tabs := SLOIncast(smokeOpts)
	if len(tabs) != 2 {
		t.Fatalf("got %d tables, want 2", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) == 0 {
			t.Fatalf("table %q has no rows", tab.Title)
		}
		for _, row := range tab.Rows {
			if len(row) != len(sloHeader) {
				t.Fatalf("table %q row has %d columns, want %d: %v", tab.Title, len(row), len(sloHeader), row)
			}
			if !strings.Contains(row[4], "/") {
				t.Fatalf("ok column %q is not completed/requests", row[4])
			}
			if !strings.HasSuffix(row[8], "%") || !strings.HasSuffix(row[9], "x") {
				t.Fatalf("timeout/amp columns malformed: %q %q", row[8], row[9])
			}
		}
	}
}
