package exp

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"floodgate/internal/app"
	"floodgate/internal/fault"
	"floodgate/internal/units"
)

const obsGolden = "testdata/obs_artifacts.golden"

// obsGoldenCase is one curated observed run: Obs and Forensics on,
// written under <dir>/<name>/ with its own manifest.
type obsGoldenCase struct {
	name string
	rc   func(o Options) RunConfig
}

// obsGoldenCases covers every instrumented event family with the
// shortest runs that still fire it: Floodgate parking, credits and
// episodes with per-dst host pause; BFC's per-flow pauses; NDP trims;
// PFC w/ tag; a faulted run (loss, a link flap, a switch restart) that
// forces RTOs and retransmissions; a wedged run that trips the
// watchdog; and the closed-loop app plane with retries, hedges and
// breaker shedding under a DCQCN PFC storm.
func obsGoldenCases() []obsGoldenCase {
	incast := func(o Options, mk func(o Options, bdp units.ByteSize, oneHop units.ByteSize) Scheme) RunConfig {
		tp := o.leafSpine()
		oneHop := tp.Node(tp.Hosts[0]).Ports[0].BDP()
		return RunConfig{
			Topo: tp, Scheme: mk(o, baseBDPOf(tp), oneHop),
			Specs:    pureIncastSpecs(tp, o.Seed),
			Duration: 2 * units.Millisecond, Seed: o.Seed, Opt: o,
		}
	}
	faulted := func(o Options) RunConfig {
		o.Scale = 1
		tp := faultTestFabric()
		return RunConfig{
			Topo:     tp,
			Scheme:   WithFloodgate(o, DCQCN(o), baseBDPOf(tp)),
			Specs:    faultTestSpecs(tp, o.Seed),
			Duration: 100 * units.Microsecond,
			Drain:    400 * units.Millisecond,
			Seed:     o.Seed, Opt: o,
		}
	}
	return []obsGoldenCase{
		{"floodgate", func(o Options) RunConfig {
			return incast(o, func(o Options, bdp, _ units.ByteSize) Scheme {
				cfg := FloodgateConfig(o, bdp)
				cfg.PerDstPause = true
				return WithFloodgateCfg(DCQCN(o), cfg, "+Floodgate+pause")
			})
		}},
		{"fattree", func(o Options) RunConfig {
			tp := o.fatTree()
			return RunConfig{
				Topo: tp, Scheme: WithFloodgate(o, DCQCN(o), baseBDPOf(tp)),
				Specs:    pureIncastSpecs(tp, o.Seed),
				Duration: 2 * units.Millisecond, Seed: o.Seed, Opt: o,
			}
		}},
		{"bfc", func(o Options) RunConfig {
			return incast(o, func(_ Options, _, oneHop units.ByteSize) Scheme { return BFC(32, false, oneHop) })
		}},
		{"ndp", func(o Options) RunConfig {
			return incast(o, func(o Options, _, _ units.ByteSize) Scheme { return NDP(o) })
		}},
		{"pfctag", func(o Options) RunConfig {
			return incast(o, func(o Options, _, oneHop units.ByteSize) Scheme { return WithPFCTag(DCQCN(o), oneHop) })
		}},
		{"faults", func(o Options) RunConfig {
			rc := faulted(o)
			rc.LossRate = 0.05
			rc.CreditLossRate = 0.1
			up := dstUplink(rc.Topo)
			flap := fault.Flap(up, units.Time(20*units.Microsecond), 30*units.Microsecond, 60*units.Microsecond, 2)
			rc.Faults = &fault.Plan{Events: append(flap,
				fault.Event{At: units.Time(60 * units.Microsecond), Kind: fault.SwitchRestart, Node: up.B})}
			return rc
		}},
		{"wedged", func(o Options) RunConfig {
			rc := faulted(o)
			dst := rc.Topo.Hosts[len(rc.Topo.Hosts)-1]
			rc.Faults = &fault.Plan{Events: []fault.Event{
				{At: 0, Kind: fault.LinkDown, Link: fault.Link{A: dst, B: dstToR(rc.Topo)}},
			}}
			rc.StallHorizon = 500 * units.Microsecond
			return rc
		}},
		{"app", func(o Options) RunConfig {
			tp := o.leafSpine()
			dur := 500 * units.Microsecond
			c := sloCell{"8", 8, "tight", 1.5, DCQCN(o),
				app.Hedged{ExpBackoff: app.ExpBackoff{Base: o.stretch(25 * units.Microsecond)}}}
			cfg := sloAppConfig(tp, c, dur)
			cfg.Requests = 12
			return RunConfig{
				Topo: tp, Scheme: c.scheme,
				Specs:    sloStormSpecs(tp, dur, o.Seed),
				Duration: dur + units.Duration(cfg.MaxAttempts)*cfg.Deadline,
				Seed:     o.Seed, Opt: o,
				BufferSize: stressBuffer(tp),
				App:        cfg,
			}
		}},
	}
}

// obsGoldenTraceOps is every trace op name the simulator emits; each
// must appear in at least one curated run's trace.
var obsGoldenTraceOps = []string{"SEND", "ENQ", "PARK", "TX", "DLVR", "DROP", "CREDIT", "RETX", "RTO", "UNPARK",
	"APPREQ", "APPRETRY", "APPHEDGE", "APPTOUT", "APPDONE"}

// TestObsArtifactsGolden pins the bytes of every observability artifact
// (metrics NDJSON/CSV, Perfetto trace, forensics NDJSON, manifest) of
// the curated runs to testdata/obs_artifacts.golden, one sha256 per
// file. A change to any instrumentation site, sink or exporter that
// moves a single byte fails here; rewrite deliberately with
// `go test ./internal/exp -run TestObsArtifactsGolden -update`.
//
// It also checks the curated set still covers the surface: every
// network instrument ends nonzero (counter or
// histogram count, or gauge high-water mark) in at least one run, and
// every emitted trace op appears at least once.
func TestObsArtifactsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	dir := t.TempDir()
	for _, c := range obsGoldenCases() {
		o := Options{Scale: 0.1, Seed: 1, Parallelism: 1,
			Obs: ObsConfig{Dir: dir, Period: 20 * units.Microsecond, Experiment: c.name, Forensics: true}}.norm()
		res := Run(c.rc(o))
		tab := Table{Title: c.name, Header: []string{"scheme", "completed", "stalled"}}
		tab.AddRow(res.Scheme, fmt.Sprintf("%d/%d", res.Completed, res.Total), fmt.Sprintf("%t", res.Stalled))
		if _, err := WriteObsManifest(o, c.name, []Table{tab}); err != nil {
			t.Fatal(err)
		}
	}

	var paths []string
	sums := make(map[string]string)
	nonzero := make(map[string]bool)
	ops := make(map[string]bool)
	for _, c := range obsGoldenCases() {
		files := readDataFiles(t, filepath.Join(dir, c.name))
		for name, data := range files {
			sum := sha256.Sum256(data)
			path := c.name + "/" + name
			paths = append(paths, path)
			sums[path] = hex.EncodeToString(sum[:])
			switch {
			case strings.HasSuffix(name, ".metrics.ndjson"):
				noteNonzeroFinals(t, name, data, nonzero)
			case strings.HasSuffix(name, ".trace.json"):
				noteTraceOps(t, name, data, ops)
			}
		}
	}
	sort.Strings(paths)
	var b strings.Builder
	for _, p := range paths {
		b.WriteString(sums[p] + "  " + p + "\n")
	}
	got := b.String()

	// Exempt: the heap gauge is set only by explicit memory probes, and
	// no switch port has the Host class, so that queued-bytes gauge
	// stays zero by construction.
	exempt := map[string]bool{"scale.heap_bytes": true, "net.queued_bytes.Host": true}
	for name, nz := range nonzero {
		if !nz && !exempt[name] && !strings.HasPrefix(name, "engine.") {
			t.Errorf("instrument %s is zero in every curated run", name)
		}
	}
	for _, op := range obsGoldenTraceOps {
		if !ops[op] {
			t.Errorf("trace op %s appears in no curated run", op)
		}
	}

	if *update {
		if err := os.WriteFile(obsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(obsGolden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("observability artifacts differ from %s:\n%s", obsGolden, lineDiff(string(want), got))
	}
}

// noteNonzeroFinals folds one NDJSON stream's "final" records into
// nonzero: an instrument counts once its end value (counter total,
// histogram count) or gauge high-water mark is nonzero.
func noteNonzeroFinals(t *testing.T, name string, data []byte, nonzero map[string]bool) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var rec struct {
			Type  string `json:"type"`
			Name  string `json:"name"`
			Value int64  `json:"value"`
			Max   int64  `json:"max"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("%s: bad NDJSON line: %v", name, err)
		}
		if rec.Type == "final" {
			nonzero[rec.Name] = nonzero[rec.Name] || rec.Value != 0 || rec.Max != 0
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// noteTraceOps records which op names a Chrome trace export carries.
// The exporter folds a paired ENQ into a QUEUED span and a paired PARK
// into a PARKED span, so those span names count for their opening op.
func noteTraceOps(t *testing.T, name string, data []byte, ops map[string]bool) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: bad trace JSON: %v", name, err)
	}
	for _, e := range doc.TraceEvents {
		switch e.Name {
		case "QUEUED":
			ops["ENQ"] = true
		case "PARKED":
			ops["PARK"] = true
		default:
			ops[e.Name] = true
		}
	}
}

// lineDiff lists the lines only one side has (the golden holds one
// file per line, so this names every changed artifact).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := make(map[string]bool)
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
