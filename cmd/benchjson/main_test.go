package main

import (
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkRunIncast-8   	      12	  95331269 ns/op	        52.11 simsec/wallsec	  20810342 events/s	 8642112 B/op	   61234 allocs/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	if r.Name != "BenchmarkRunIncast" || r.Iterations != 12 {
		t.Errorf("name/iters = %q/%d", r.Name, r.Iterations)
	}
	if r.AllocsPerOp != 61234 || r.BytesPerOp != 8642112 {
		t.Errorf("allocs/bytes = %d/%d", r.AllocsPerOp, r.BytesPerOp)
	}
	if r.Metrics["events/s"] != 20810342 {
		t.Errorf("events/s = %v", r.Metrics["events/s"])
	}
	if _, ok := parseLine("PASS"); ok {
		t.Error("non-benchmark line parsed")
	}
}

func mkDoc(rs ...benchResult) doc { return doc{Format: 2, Count: len(rs), Benchmarks: rs} }

// TestMergeBest pins the best-of--count collapse: repeated names keep
// the fastest run's whole record, unique names pass through in place.
func TestMergeBest(t *testing.T) {
	out := mergeBest([]benchResult{
		{Name: "BenchmarkA", NsPerOp: 300, Metrics: map[string]float64{"events/s": 1e6}},
		{Name: "BenchmarkB", NsPerOp: 50},
		{Name: "BenchmarkA", NsPerOp: 200, Metrics: map[string]float64{"events/s": 3e6}},
		{Name: "BenchmarkA", NsPerOp: 250, Metrics: map[string]float64{"events/s": 2e6}},
	})
	if len(out) != 2 {
		t.Fatalf("got %d results, want 2: %v", len(out), out)
	}
	if out[0].Name != "BenchmarkA" || out[0].NsPerOp != 200 || out[0].Metrics["events/s"] != 3e6 {
		t.Errorf("BenchmarkA = %+v, want the fastest run's whole record", out[0])
	}
	if out[1].Name != "BenchmarkB" || out[1].NsPerOp != 50 {
		t.Errorf("BenchmarkB = %+v", out[1])
	}
}

// TestCompareDocs pins the tolerance semantics: ns/op and allocs/op
// may not rise past tol percent of the baseline, events/s may not fall
// past it, and benchmarks on only one side never fail.
func TestCompareDocs(t *testing.T) {
	base := mkDoc(
		benchResult{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 1000, Metrics: map[string]float64{"events/s": 1e6}},
		benchResult{Name: "BenchmarkGone", NsPerOp: 50},
	)
	cases := []struct {
		name string
		cur  benchResult
		want string // substring of expected violation, "" = clean
	}{
		{"within tolerance", benchResult{Name: "BenchmarkA", NsPerOp: 1050, AllocsPerOp: 1040, Metrics: map[string]float64{"events/s": 0.95e6}}, ""},
		{"ns regression", benchResult{Name: "BenchmarkA", NsPerOp: 1200, AllocsPerOp: 1000, Metrics: map[string]float64{"events/s": 1e6}}, "ns/op exceeds"},
		{"alloc regression", benchResult{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 1200, Metrics: map[string]float64{"events/s": 1e6}}, "allocs/op exceeds"},
		{"throughput regression", benchResult{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 1000, Metrics: map[string]float64{"events/s": 0.8e6}}, "events/s falls"},
		{"new benchmark ignored", benchResult{Name: "BenchmarkNew", NsPerOp: 1e9, AllocsPerOp: 1 << 30}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			viol := compareDocs(base, mkDoc(tc.cur), 10)
			if tc.want == "" {
				if len(viol) != 0 {
					t.Fatalf("unexpected violations: %v", viol)
				}
				return
			}
			if len(viol) != 1 || !strings.Contains(viol[0], tc.want) {
				t.Fatalf("violations = %v, want one mentioning %q", viol, tc.want)
			}
		})
	}
}

// TestMissingNames: baseline benchmarks absent from the run are listed
// in baseline order; names only in the run are not.
func TestMissingNames(t *testing.T) {
	base := mkDoc(benchResult{Name: "BenchmarkA"}, benchResult{Name: "BenchmarkGone"}, benchResult{Name: "BenchmarkB"})
	got := missingNames(base, mkDoc(benchResult{Name: "BenchmarkB"}, benchResult{Name: "BenchmarkNew"}, benchResult{Name: "BenchmarkA"}))
	if len(got) != 1 || got[0] != "BenchmarkGone" {
		t.Fatalf("missingNames = %v, want [BenchmarkGone]", got)
	}
}

// TestCompareDocsAbsoluteAllocSlack pins the small absolute slack: a
// benchmark going from 0 to a few allocs/op is not a percentage
// question, and must still pass.
func TestCompareDocsAbsoluteAllocSlack(t *testing.T) {
	base := mkDoc(benchResult{Name: "BenchmarkB", NsPerOp: 100, AllocsPerOp: 0})
	if v := compareDocs(base, mkDoc(benchResult{Name: "BenchmarkB", NsPerOp: 100, AllocsPerOp: 8}), 10); len(v) != 0 {
		t.Errorf("8 allocs over a 0 baseline should sit inside the absolute slack: %v", v)
	}
	if v := compareDocs(base, mkDoc(benchResult{Name: "BenchmarkB", NsPerOp: 100, AllocsPerOp: 9}), 10); len(v) != 1 {
		t.Errorf("9 allocs over a 0 baseline should breach the slack, got %v", v)
	}
}

// TestForensicsPairRule pins the built-in pair rule: the forensics-off
// benchmark must allocate like the plain incast benchmark.
func TestForensicsPairRule(t *testing.T) {
	if msg := forensicsPairRule(mkDoc(
		benchResult{Name: "BenchmarkForensicsOff", AllocsPerOp: 10004},
		benchResult{Name: "BenchmarkRunIncast", AllocsPerOp: 10000},
	)); msg != "" {
		t.Errorf("small delta should pass: %s", msg)
	}
	msg := forensicsPairRule(mkDoc(
		benchResult{Name: "BenchmarkForensicsOff", AllocsPerOp: 12000},
		benchResult{Name: "BenchmarkRunIncast", AllocsPerOp: 10000},
	))
	if !strings.Contains(msg, "must be allocation-free") {
		t.Errorf("large delta should fail, got %q", msg)
	}
	if msg := forensicsPairRule(mkDoc(benchResult{Name: "BenchmarkRunIncast", AllocsPerOp: 10000})); msg != "" {
		t.Errorf("rule should not apply without both benchmarks: %s", msg)
	}
}

// TestRouteMemoryPairRule pins the structural-vs-dense compression
// gate: structural route_bytes must stay at least 100x below dense.
func TestRouteMemoryPairRule(t *testing.T) {
	mk := func(structural, dense float64) doc {
		return mkDoc(
			benchResult{Name: "BenchmarkRouteMemory/structural", Metrics: map[string]float64{"route_bytes/topo": structural}},
			benchResult{Name: "BenchmarkRouteMemory/dense", Metrics: map[string]float64{"route_bytes/topo": dense}},
		)
	}
	if msg := routeMemoryPairRule(mk(32384, 58228224)); msg != "" {
		t.Errorf("measured k=16 ratio (~1798x) should pass: %s", msg)
	}
	if msg := routeMemoryPairRule(mk(1e6, 5e7)); !strings.Contains(msg, "100x") {
		t.Errorf("50x ratio should fail the 100x bound, got %q", msg)
	}
	if msg := routeMemoryPairRule(mkDoc(
		benchResult{Name: "BenchmarkRouteMemory/structural", Metrics: map[string]float64{"route_bytes/topo": 1e6}},
	)); msg != "" {
		t.Errorf("rule should not apply without both halves: %s", msg)
	}
}
