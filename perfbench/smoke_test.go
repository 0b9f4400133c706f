package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// the command against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at its tiny size through the same code
// as a benchmark run, untraced and traced, and checks that each metric
// BENCHMARK.json names is emitted with its unit, that every output
// check passes, and that all runs of a seed share one digest.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(scenarios) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(scenarios))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if findScenario(w.Name) == nil {
				t.Fatalf("no scenario %q", w.Name)
			}
			digests := map[string]bool{}
			for _, traced := range []bool{false, true} {
				o := options{workload: w.Name, seed: defaultSeed, trace: traced, tiny: true}
				var records bytes.Buffer
				res, err := measure(o, newManifest(o), &records)
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics emitted, BENCHMARK.json names %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %q", traced, m.Name, got, m.Unit)
					}
				}
				sc := bufio.NewScanner(&records)
				for sc.Scan() {
					var rec struct {
						Traced bool   `json:"traced"`
						Digest string `json:"digest"`
					}
					if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
						t.Fatal(err)
					}
					digests[rec.Digest] = true
				}
			}
			if len(digests) != 1 {
				t.Errorf("runs of one seed produced digests %v", digests)
			}
		})
	}
}

// TestLayerOf pins the symbol-to-layer mapping of the CPU split.
func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"floodgate/internal/sim.(*Engine).Run":                 "sim",
		"floodgate/internal/cc/dcqcn.(*flow).OnAck":            "cc",
		"floodgate/internal/core.(*Module).OnIngress":          "core",
		"runtime.mallocgc":                                     "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":         "runtime",
		"floodgate/internal/workload.Poisson":                  "other",
		"sort.Slice":                                           "other",
		"slices.SortFunc[go.shape.[]floodgate/internal/sim.x]": "other",
		"main.runOnce":                                         "other",
		"":                                                     "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
