// Command perfbench is the repository benchmark: it runs one workload
// of the Floodgate simulator repeatedly for a fixed time, checks every
// run's outputs, and prints the metrics BENCHMARK.json names as the
// last line of standard output. See README.md.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"floodgate"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// defaultSeed is the seed benchmark runs use unless told otherwise;
// heldOutSeed is reserved for confirming a claimed gain on inputs the
// change was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 8191
)

// metric is one reported figure with its unit.
type metric struct {
	name, unit string
}

// endToEnd are the untraced run's metrics: host cost of a run, and
// what the modelled network did (simulated, identical for a seed).
var endToEnd = []metric{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"fct_p50_us", "us"},
}

// perLayer are the traced run's metrics, named by repository module.
var perLayer = []metric{
	{"workload.gen_s", "s"},
	{"workload.flows", "count"},
	{"topo.build_s", "s"},
	{"topo.build_alloc_mb", "MB"},
	{"topo.route_bytes", "B"},
	{"device.construct_s", "s"},
	{"device.construct_alloc_mb", "MB"},
	{"device.inject_s", "s"},
	{"device.inject_alloc_mb", "MB"},
	{"device.wire_data_mb", "MB"},
	{"device.wire_ctrl_mb", "MB"},
	{"device.wire_credit_mb", "MB"},
	{"device.drops", "count"},
	{"device.retransmits", "count"},
	{"device.pfc_events", "count"},
	{"device.max_buffer_kb", "KB"},
	{"sim.simulate_s", "s"},
	{"sim.simulate_alloc_mb", "MB"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.events_per_kb", "1/KB"},
	{"sim.queue_hwm", "count"},
	{"sim.slab_hwm", "count"},
	{"core.ingress_calls", "count"},
	{"core.parked", "count"},
	{"core.park_frac", "ratio"},
	{"core.ctrl_calls", "count"},
	{"core.busy_s", "s"},
	{"core.voq_hwm", "count"},
	{"core.max_windows", "count"},
	{"cc.calls", "count"},
	{"cc.cnps", "count"},
	{"cc.busy_s", "s"},
	{"stats.report_s", "s"},
	{"stats.fct_samples", "count"},
	{"stats.fct_p99_us", "us"},
	{"gc.cycles", "count"},
	{"gc.cpu_s", "s"},
	{"cpu.sim", "share"},
	{"cpu.device", "share"},
	{"cpu.core", "share"},
	{"cpu.cc", "share"},
	{"cpu.stats", "share"},
	{"cpu.topo", "share"},
	{"cpu.exp", "share"},
	{"cpu.runtime", "share"},
	{"cpu.other", "share"},
	{"trace.overhead_frac", "ratio"},
}

// options selects what one invocation measures.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool // smoke-test size of every workload
}

// value is one reported metric value.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "incast_mix", "workload: incast_mix, poisson_tiny or clos100k_incast")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload generation seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measurement time per invocation")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced runs")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	if findScenario(o.workload) == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	man := newManifest(o)
	res, err := measure(o, man, os.Stdout)
	if err != nil && res.Metrics == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res) // maps of floats and strings always marshal
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", err)
		os.Exit(1)
	}
}

// measure repeats runs of one workload for o.seconds and reduces them
// to the result: at least three untraced runs or, when tracing, a
// warm-up run and then alternating untraced and traced runs, at least
// one of each. The warm-up keeps the cold-heap first run of the process
// out of the tracing-overhead comparison; it is checked but not
// reported. Each run's record goes to records as one JSON line. A
// non-nil error with a non-nil result means an output check failed.
func measure(o options, man manifest, records io.Writer) (result, error) {
	sc := findScenario(o.workload)
	var runs []*runRecord
	var checkErr error
	res := result{Metrics: map[string]value{}}
	warmups, minRuns := 0, 3
	if o.trace {
		warmups = 1
	}
	clk := startClock()
	for i := 0; ; i++ {
		r, err := runOnce(sc, o.seed, o.trace && i > 0 && i%2 == 0, o.tiny)
		if err != nil {
			return result{}, err
		}
		if len(runs) > 0 && r.out.digest != runs[0].out.digest {
			r.checks = append(r.checks, fmt.Sprintf("digest %s differs from run 0's %s", r.out.digest, runs[0].out.digest))
		}
		for _, c := range r.checks {
			checkErr = errors.Join(checkErr, fmt.Errorf("run %d: %s", i, c))
		}
		res.Attempted += r.out.flows
		res.Failed += r.out.flows - r.out.completed
		runs = append(runs, r)
		man.Digest = r.out.digest
		if err := json.NewEncoder(records).Encode(r.record(i, i < warmups, man)); err != nil {
			return result{}, err
		}
		elapsed := clk.since()
		perRun := elapsed / time.Duration(i+1)
		if i+1 >= minRuns && (elapsed+perRun).Seconds() > o.seconds {
			break
		}
	}
	measured := runs[warmups:]
	if o.trace {
		if err := reduceTraced(measured, res.Metrics); err != nil {
			return result{}, err
		}
	} else {
		reduceUntraced(measured, res.Metrics)
	}
	res.Correct = checkErr == nil
	return res, checkErr
}

// outcome is what one run produced, reduced to the checked and
// reported quantities.
type outcome struct {
	flows, completed int
	runTotal         int // flows floodgate.Run reports it ran
	delivered        units.ByteSize
	completedBytes   units.ByteSize // summed size of the completed flows
	events           uint64
	fctN             int
	fctP50, fctP99   units.Duration
	maxBuffer        units.ByteSize
	pfcPause         units.Duration
	digest           string
}

// runRecord is one run's measurements.
type runRecord struct {
	traced      bool
	wall, setup time.Duration
	liveHeap    uint64
	out         outcome
	checks      []string           // failed output checks
	layer       map[string]float64 // traced runs only
	profile     []byte             // traced runs only: gzipped pprof CPU profile
}

// runOnce executes one complete run: generate, build, construct,
// register, simulate, report. Spans are stamped from the benchmark's
// side of every layer boundary.
func runOnce(sc *scenario, seed uint64, traced, tiny bool) (*runRecord, error) {
	runtime.GC() // every run starts from the same, nearly empty heap
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var topoAlloc, genAlloc uint64
	if traced {
		topoAlloc = heapAllocated()
	}
	p := &probe{traced: traced, clk: startClock()}
	tp := sc.fabric(tiny)
	topoEnd := p.now()
	if traced {
		genAlloc = heapAllocated()
	}
	genStart := p.now()
	specs := sc.specs(tp, seed, tiny)
	genEnd := p.now()
	rc := sc.config(tp, specs, seed, tiny)
	p.flows = len(specs)
	rc.Scheme.CC = p.wrapCC(rc.Scheme.CC)
	if traced {
		rc.Scheme.FC = p.wrapFC(rc.Scheme.FC)
	}
	var runAlloc, retAlloc uint64
	var gc0, gc1 gcCounters
	if traced {
		runAlloc = heapAllocated()
		gc0 = readGC()
	}
	runAt := p.now()
	res := floodgate.Run(rc)
	if traced {
		retAlloc = heapAllocated()
		gc1 = readGC()
	}
	out := summarize(res, len(specs))
	wall := p.now()
	if traced {
		pprof.StopCPUProfile()
	}

	r := &runRecord{traced: traced, wall: wall, out: out}
	r.checks = out.check()
	if p.factoryCalls < p.flows {
		return nil, fmt.Errorf("%s: %d controllers built for %d flows; the set-up boundary is unobservable",
			sc.name, p.factoryCalls, p.flows)
	}
	setup := p.ccLast // the last flow's registration ends set-up
	r.setup = setup
	if traced {
		if !p.started || setup > p.evFirst {
			r.checks = append(r.checks, fmt.Sprintf("set-up boundary %v falls after the first simulated event at %v", setup, p.evFirst))
		}
		r.profile = prof.Bytes()
		st := res.Stats
		eng := res.Net.Eng.StatsSnapshot()
		simulate := p.evLast - setup
		maxWins := 0
		for _, m := range p.modules {
			maxWins = max(maxWins, m.MaxWindows())
		}
		r.layer = map[string]float64{
			"workload.gen_s":            (genEnd - genStart).Seconds(),
			"workload.flows":            float64(len(specs)),
			"topo.build_s":              topoEnd.Seconds(),
			"topo.build_alloc_mb":       mb(genAlloc - topoAlloc),
			"topo.route_bytes":          float64(tp.RouteBytes()),
			"device.construct_s":        (p.ccFirst - runAt).Seconds(),
			"device.construct_alloc_mb": mb(p.allocFirst - runAlloc),
			"device.inject_s":           (p.ccLast - p.ccFirst).Seconds(),
			"device.inject_alloc_mb":    mb(p.allocLast - p.allocFirst),
			"device.wire_data_mb":       mb(uint64(st.WireTotal(stats.WireData))),
			"device.wire_ctrl_mb":       mb(uint64(st.WireTotal(stats.WireCtrl))),
			"device.wire_credit_mb":     mb(uint64(st.WireTotal(stats.WireCredit))),
			"device.drops":              float64(st.Drops),
			"device.retransmits":        float64(st.Retransmits),
			"device.pfc_events":         float64(st.PFCEventCount()),
			"sim.simulate_s":            simulate.Seconds(),
			"sim.simulate_alloc_mb":     mb(retAlloc - p.allocLast),
			"sim.events":                float64(out.events),
			"sim.ns_per_event":          float64(simulate.Nanoseconds()) / float64(out.events),
			"sim.events_per_kb":         float64(out.events) / (float64(out.delivered) / float64(units.KB)),
			"sim.queue_hwm":             float64(eng.HeapHighWater),
			"sim.slab_hwm":              float64(eng.SlabSize),
			"core.ingress_calls":        float64(p.ingress),
			"core.parked":               float64(p.parked),
			"core.park_frac":            float64(p.parked) / float64(max(p.ingress, 1)),
			"core.ctrl_calls":           float64(p.ctrl),
			"core.busy_s":               p.coreBusy.Seconds(),
			"core.voq_hwm":              float64(st.MaxVOQInUse),
			"core.max_windows":          float64(maxWins),
			"cc.calls":                  float64(p.ccCalls),
			"cc.cnps":                   float64(p.cnps),
			"cc.busy_s":                 p.ccBusy.Seconds(),
			"stats.report_s":            (wall - p.evLast).Seconds(),
			"stats.fct_samples":         float64(out.fctN),
			"stats.fct_p99_us":          micros(out.fctP99),
			"device.max_buffer_kb":      kb(out.maxBuffer),
			"gc.cycles":                 float64(gc1.cycles - gc0.cycles),
			"gc.cpu_s":                  gc1.cpu - gc0.cpu,
		}
	}
	runtime.GC()
	r.liveHeap = liveHeap() // the run's results are still referenced here
	runtime.KeepAlive(res)
	return r, nil
}

func mb(b uint64) float64 { return float64(b) / float64(units.MB) }

func kb(b units.ByteSize) float64 { return float64(b) / float64(units.KB) }

func micros(d units.Duration) float64 { return float64(d) / float64(units.Microsecond) }

// summarize reduces a finished run to its outcome and digest: a hash
// over the sorted FCT samples, the busiest switch's peak buffer, the
// per-layer PFC pause time, delivered payload and the event count.
func summarize(res *floodgate.RunResult, attempted int) outcome {
	st := res.Stats
	out := outcome{
		flows:     attempted,
		runTotal:  res.Total,
		delivered: res.DeliveredBytes(),
		events:    res.Processed(),
		maxBuffer: st.MaxSwitchBuffer(),
	}
	for _, f := range res.Cluster.Flows() {
		if f.Done() {
			out.completed++
			out.completedBytes += f.Size
		}
	}
	samples := st.AllFCTs()
	fcts := make([]units.Duration, len(samples))
	for i, s := range samples {
		fcts[i] = s.FCT
	}
	sort.Slice(fcts, func(i, j int) bool { return fcts[i] < fcts[j] })
	out.fctN = len(fcts)
	out.fctP50 = stats.Percentile(fcts, 0.50)
	out.fctP99 = stats.Percentile(fcts, 0.99)

	buf := make([]byte, 0, 8*(len(fcts)+8))
	put := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	put(int64(len(fcts)))
	for _, d := range fcts {
		put(int64(d))
	}
	put(int64(out.maxBuffer))
	for l := topo.LayerHost; l <= topo.LayerCore; l++ {
		pause := st.PFCPauseTime(l)
		out.pfcPause += pause
		put(int64(pause))
	}
	put(int64(out.delivered))
	put(int64(out.events))
	sum := sha256.Sum256(buf)
	out.digest = hex.EncodeToString(sum[:8])
	return out
}

// check lists every failed output check of one run.
func (o outcome) check() []string {
	var bad []string
	if o.runTotal != o.flows {
		bad = append(bad, fmt.Sprintf("run reports %d flows, %d were registered", o.runTotal, o.flows))
	}
	if o.completed != o.flows {
		bad = append(bad, fmt.Sprintf("%d of %d flows completed", o.completed, o.flows))
	}
	if o.fctN != o.completed {
		bad = append(bad, fmt.Sprintf("%d FCT samples for %d completed flows", o.fctN, o.completed))
	}
	if o.delivered != o.completedBytes {
		bad = append(bad, fmt.Sprintf("delivered %d payload bytes, completed flows hold %d", o.delivered, o.completedBytes))
	}
	return bad
}

// record is the run's JSON line.
func (r *runRecord) record(i int, warmup bool, man manifest) map[string]any {
	return map[string]any{
		"run":           i,
		"warmup":        warmup,
		"traced":        r.traced,
		"wall_s":        r.wall.Seconds(),
		"setup_s":       r.setup.Seconds(),
		"live_heap_mb":  mb(r.liveHeap),
		"flows":         r.out.flows,
		"completed":     r.out.completed,
		"events":        r.out.events,
		"fct_samples":   r.out.fctN,
		"fct_p50_us":    micros(r.out.fctP50),
		"fct_p99_us":    micros(r.out.fctP99),
		"max_buffer_kb": kb(r.out.maxBuffer),
		"pfc_pause_us":  micros(r.out.pfcPause),
		"digest":        r.out.digest,
		"checks_failed": r.checks,
		"manifest":      man,
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// reduceUntraced reports medians of the host metrics over the runs;
// the simulated metrics are identical in every run of a seed (the
// digest check enforces it).
func reduceUntraced(runs []*runRecord, into map[string]value) {
	var wall, setup, live []float64
	for _, r := range runs {
		wall = append(wall, r.wall.Seconds())
		setup = append(setup, r.setup.Seconds())
		live = append(live, mb(r.liveHeap))
	}
	v := map[string]float64{
		"wall_s":       median(wall),
		"setup_s":      median(setup),
		"live_heap_mb": median(live),
		"fct_p50_us":   micros(runs[0].out.fctP50),
	}
	for _, m := range endToEnd {
		into[m.name] = value{v[m.name], m.unit}
	}
}

// reduceTraced reports per-layer medians over the traced runs, CPU
// self-time shares over all their profiles, and the tracing overhead
// against the interleaved untraced runs.
func reduceTraced(runs []*runRecord, into map[string]value) error {
	var plainWall, tracedWall []float64
	layer := map[string][]float64{}
	cpu := map[string]int64{}
	for _, r := range runs {
		if !r.traced {
			plainWall = append(plainWall, r.wall.Seconds())
			continue
		}
		tracedWall = append(tracedWall, r.wall.Seconds())
		for _, m := range perLayer {
			if x, ok := r.layer[m.name]; ok {
				layer[m.name] = append(layer[m.name], x)
			}
		}
		if err := selfTime(r.profile, cpu); err != nil {
			return err
		}
	}
	v := map[string]float64{}
	for _, m := range perLayer {
		if xs := layer[m.name]; len(xs) > 0 {
			v[m.name] = median(xs)
		}
	}
	var total int64
	for _, l := range cpuLayers {
		total += cpu[l]
	}
	for _, l := range cpuLayers {
		v["cpu."+l] = float64(cpu[l]) / float64(max(total, 1))
	}
	v["trace.overhead_frac"] = median(tracedWall)/median(plainWall) - 1
	for _, m := range perLayer {
		x, ok := v[m.name]
		if !ok {
			return fmt.Errorf("perfbench: traced runs produced no %s", m.name)
		}
		into[m.name] = value{x, m.unit}
	}
	return nil
}
