package exp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"floodgate/internal/workload"
)

// smokeOpts keeps per-experiment runtime low while still exercising
// the full pipeline.
var smokeOpts = Options{Scale: 0.1, Seed: 1}

func TestRegistryLookup(t *testing.T) {
	for _, e := range List() {
		got, err := Lookup(e.ID)
		if err != nil || got.ID != e.ID {
			t.Fatalf("Lookup(%q) = %v, %v", e.ID, got.ID, err)
		}
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
	if len(IDs()) != len(List()) {
		t.Fatal("IDs/List mismatch")
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "x", Header: []string{"a", "bb"}, Comment: "note"}
	tab.AddRow("1", "2")
	s := tab.String()
	for _, want := range []string{"== x ==", "a", "bb", "-- note"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestFig7NoSim(t *testing.T) {
	tabs := Fig7(smokeOpts)
	if len(tabs) != 1 || len(tabs[0].Rows) != 4 {
		t.Fatalf("fig7 shape wrong: %+v", tabs)
	}
}

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files of the tests that run")

const smokeGolden = "testdata/smoke_tables.golden"

// TestSmokeAllExperiments executes every registered experiment once at
// minimal scale and compares the rendered tables, byte for byte, with
// testdata/smoke_tables.golden. Any change to event order, a model or
// a table format shows up here; regenerate deliberately with
// `go test ./internal/exp -run TestSmokeAllExperiments -update`.
// Heavier figures are exercised in (skippable) dedicated tests below.
func TestSmokeAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke is not short")
	}
	// Budget the pass: a quarter-length workload window keeps the whole
	// registry under the default go-test timeout on one core.
	windowOverride = fullIncastMixDuration / 4
	defer func() { windowOverride = 0 }()
	skip := map[string]bool{
		"fig8": true, // covered by the per-CC variants below
	}
	want := map[string]string{}
	if !*update {
		b, err := os.ReadFile(smokeGolden)
		if err != nil {
			t.Fatalf("read golden (regenerate with -update): %v", err)
		}
		want = splitGolden(string(b))
	}
	var all strings.Builder
	for _, e := range List() {
		if skip[e.ID] {
			continue
		}
		e := e
		var got strings.Builder
		t.Run(e.ID, func(t *testing.T) {
			tabs := e.Run(smokeOpts)
			if len(tabs) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tab := range tabs {
				if len(tab.Rows) == 0 {
					t.Fatalf("%s produced an empty table %q", e.ID, tab.Title)
				}
				got.WriteString(tab.String())
			}
			if !*update && got.String() != want[e.ID] {
				t.Errorf("%s tables differ from %s:\n--- got\n%s\n--- want\n%s",
					e.ID, smokeGolden, got.String(), want[e.ID])
			}
		})
		all.WriteString(goldenHeader + e.ID + "\n" + got.String())
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(smokeGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(smokeGolden, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

const goldenHeader = "#### "

// splitGolden maps each experiment id to its tables in the golden file,
// where every experiment's block opens with a goldenHeader line.
func splitGolden(s string) map[string]string {
	out := map[string]string{}
	for _, blk := range strings.Split(s, goldenHeader)[1:] {
		id, body, _ := strings.Cut(blk, "\n")
		out[id] = body
	}
	return out
}

func TestIncastMixCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	o := smokeOpts
	tp := o.leafSpine()
	res := runIncastMix(o, workload.WebServer, WithFloodgate(o, DCQCN(o), baseBDPOf(tp)))
	if res.Completed != res.Total {
		t.Fatalf("flows incomplete: %d/%d", res.Completed, res.Total)
	}
	if res.Stats.MaxSwitchBuffer() == 0 {
		t.Fatal("no buffer recorded")
	}
}

func TestSchemeNames(t *testing.T) {
	o := smokeOpts
	if DCQCN(o).Name != "DCQCN" || TIMELY(o).Name != "TIMELY" || HPCC(o).Name != "HPCC" {
		t.Fatal("base scheme names wrong")
	}
	if got := WithFloodgate(o, DCQCN(o), 64000).Name; got != "DCQCN+Floodgate" {
		t.Fatalf("name = %q", got)
	}
	if got := WithIdeal(o, HPCC(o), 64000).Name; got != "HPCC+ideal" {
		t.Fatalf("name = %q", got)
	}
	if got := BFC(32, false, 12000).Name; got != "BFC-32Q" {
		t.Fatalf("name = %q", got)
	}
	if got := BFC(0, true, 12000).Name; got != "BFC-ideal" {
		t.Fatalf("name = %q", got)
	}
}

func TestOptionsScaling(t *testing.T) {
	o := Options{Scale: 1, Seed: 1}
	if o.hostsPerToR() != 16 || o.spines() != 4 {
		t.Fatalf("paper scale wrong: hosts=%d spines=%d", o.hostsPerToR(), o.spines())
	}
	small := Options{Scale: 0.1, Seed: 1}.norm()
	if small.hostsPerToR() < 6 {
		t.Fatal("rack floor violated")
	}
	// Non-blocking invariant at every scale.
	for _, s := range []float64{0.1, 0.2, 0.5, 0.75, 1} {
		oo := Options{Scale: s, Seed: 1}.norm()
		tp := oo.leafSpine()
		tor := tp.Node(tp.Hosts[0]).Ports[0].Peer
		var up, down float64
		for _, p := range tp.Node(tor).Ports {
			if tp.Node(p.Peer).Kind == 0 { // host
				down += float64(p.Rate)
			} else {
				up += float64(p.Rate)
			}
		}
		if up < down {
			t.Fatalf("scale %v: blocking fabric (up %v < down %v)", s, up, down)
		}
	}
}
