package exp

// Observability: optional per-run metrics sampling and timeline export.
//
// When Options.Obs.Dir is set, every Run gets a private metrics
// registry (engine self-metrics + device/Floodgate instruments), a
// sim-clock sampler, and a trace ring, and writes three files per run
// into <dir>/<experiment>/: NDJSON time series, wide CSV, and a Chrome
// trace_event JSON of the flight recorder (loads in Perfetto). A
// manifest.json beside them records what produced the files and a
// content hash of the rendered tables.
//
// Determinism: run files are named by a content hash of the RunConfig
// (never a global counter), sampling is driven by the simulation
// clock, and exports walk instruments in registration order — so all
// data files are byte-identical at any parallelism, and concurrent
// identical writers are made safe by atomic temp-file renames. The
// manifest's parallelism field is the single value allowed to vary
// between -par settings.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"floodgate/internal/device"
	"floodgate/internal/forensics"
	"floodgate/internal/metrics"
	"floodgate/internal/sim"
	"floodgate/internal/trace"
	"floodgate/internal/units"
)

// ObsConfig switches on observability output for experiment runs.
type ObsConfig struct {
	// Dir is the output root; empty disables observability entirely.
	Dir string
	// Period is the sampling period on the simulation clock
	// (non-positive falls back to metrics.DefaultPeriod).
	Period units.Duration
	// Experiment labels the output subdirectory (set by RunByID; adhoc
	// runs land in "adhoc").
	Experiment string
	// Forensics switches on causal flow forensics: per-flow FCT
	// time-budget attribution and incast-episode detection (see
	// internal/forensics). Independent of Dir — with Dir set the report
	// is also written as <label>.forensics.ndjson; without it the
	// report is only attached to RunResult.
	Forensics bool
}

// Enabled reports whether observability output was requested.
func (c ObsConfig) Enabled() bool { return c.Dir != "" }

func (c ObsConfig) period() units.Duration {
	if c.Period <= 0 {
		return metrics.DefaultPeriod
	}
	return c.Period
}

func (c ObsConfig) experiment() string {
	if c.Experiment == "" {
		return "adhoc"
	}
	return c.Experiment
}

// obsTraceCap bounds the flight-recorder ring attached to observed
// runs (the newest events win; Perfetto handles this size easily).
const obsTraceCap = 1 << 16

// obsRun carries one observed run's registry, sampler and trace ring.
type obsRun struct {
	cfg     ObsConfig
	reg     *metrics.Registry
	sampler *metrics.Sampler
	tbuf    *trace.Buffer
	label   string

	engProcessed metrics.Gauge
	engLive      metrics.Gauge
	engHeapLen   metrics.Gauge
	engHeapHW    metrics.Gauge
	engDead      metrics.Gauge
	engSlab      metrics.Gauge
	engInUse     metrics.Gauge
}

// newObsRun builds the registry (engine instruments first, then the
// network bundle in canonical order), attaches it to the device config
// and returns the run handle. Call start after the network exists.
func newObsRun(rc RunConfig, o Options, eng *sim.Engine, dcfg *device.Config) *obsRun {
	r := metrics.NewRegistry()
	ob := &obsRun{
		cfg:          o.Obs,
		reg:          r,
		label:        obsLabel(rc),
		engProcessed: r.Gauge("engine.events_processed", "events"),
		engLive:      r.Gauge("engine.live_events", "events"),
		engHeapLen:   r.Gauge("engine.heap_len", "entries"),
		engHeapHW:    r.Gauge("engine.heap_high_water", "entries"),
		engDead:      r.Gauge("engine.dead_entries", "entries"),
		engSlab:      r.Gauge("engine.slab_size", "slots"),
		engInUse:     r.Gauge("engine.events_in_use", "slots"),
	}
	dcfg.Metrics = device.NewNetMetrics(r)
	if dcfg.Trace == nil {
		ob.tbuf = trace.NewBuffer(obsTraceCap, trace.Filter{})
		dcfg.Trace = ob.tbuf
	}
	ob.sampler = metrics.NewSampler(eng, r, o.Obs.period())
	ob.sampler.AddProbe(func() {
		st := eng.StatsSnapshot()
		ob.engProcessed.Set(int64(st.Processed))
		ob.engLive.Set(int64(st.Live))
		ob.engHeapLen.Set(int64(st.HeapLen))
		ob.engHeapHW.Set(int64(st.HeapHighWater))
		ob.engDead.Set(int64(st.DeadEntries))
		ob.engSlab.Set(int64(st.SlabSize))
		ob.engInUse.Set(int64(st.InUse))
	})
	return ob
}

// start begins periodic sampling (first tick one period in).
func (ob *obsRun) start() { ob.sampler.Start() }

// export writes the run's NDJSON, CSV and Chrome trace files, plus the
// forensics report when one was built (rep may be nil).
func (ob *obsRun) export(rep *forensics.Report) error {
	dir := filepath.Join(ob.cfg.Dir, ob.cfg.experiment())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, render func(*strings.Builder) error) error {
		var b strings.Builder
		if err := render(&b); err != nil {
			return err
		}
		return metrics.WriteFileAtomic(filepath.Join(dir, name), []byte(b.String()))
	}
	if err := write(ob.label+".metrics.ndjson", func(b *strings.Builder) error {
		return ob.sampler.WriteNDJSON(b)
	}); err != nil {
		return err
	}
	if err := write(ob.label+".metrics.csv", func(b *strings.Builder) error {
		return ob.sampler.WriteCSV(b)
	}); err != nil {
		return err
	}
	if ob.tbuf != nil {
		if err := write(ob.label+".trace.json", func(b *strings.Builder) error {
			return metrics.WriteChromeTrace(b, ob.tbuf.Events())
		}); err != nil {
			return err
		}
	}
	if rep != nil {
		if err := write(ob.label+".forensics.ndjson", func(b *strings.Builder) error {
			return rep.WriteNDJSON(b)
		}); err != nil {
			return err
		}
	}
	return nil
}

// obsLabel derives a deterministic, parallelism-independent file label
// from the run's content: a sanitized scheme name plus a hash over
// everything that shapes the simulation. Identical configs map to the
// same label (and, by determinism, identical bytes); a global counter
// would instead depend on completion order.
func obsLabel(rc RunConfig) string {
	parts := []string{
		rc.Scheme.Name,
		fmt.Sprintf("seed=%d", rc.Seed),
		fmt.Sprintf("dur=%d", int64(rc.Duration)),
		fmt.Sprintf("drain=%d", int64(rc.Drain)),
		fmt.Sprintf("buf=%d", int64(rc.BufferSize)),
		fmt.Sprintf("scale=%g", rc.Opt.Scale),
		fmt.Sprintf("loss=%g/%g", rc.LossRate, rc.CreditLossRate),
		fmt.Sprintf("pfcoff=%t", rc.PFCOff),
		fmt.Sprintf("binw=%d", int64(rc.BinWidth)),
		fmt.Sprintf("nspecs=%d", len(rc.Specs)),
	}
	if rc.Faults != nil {
		for _, ev := range rc.Faults.SortedEvents() {
			parts = append(parts, fmt.Sprintf("fault=%d:%d:%d-%d@%d",
				int(ev.Kind), int64(ev.Link.A), int64(ev.Link.B), int64(ev.Node), int64(ev.At)))
		}
		if g := rc.Faults.Burst; g != nil {
			parts = append(parts, fmt.Sprintf("burst=%g/%g/%g/%g",
				g.PGoodBad, g.PBadGood, g.LossGood, g.LossBad))
			for _, l := range rc.Faults.BurstLinks {
				parts = append(parts, fmt.Sprintf("burstlink=%d-%d", int64(l.A), int64(l.B)))
			}
		}
	}
	for _, s := range rc.Specs {
		parts = append(parts, fmt.Sprintf("%d>%d:%d@%d/%d",
			int64(s.Src), int64(s.Dst), int64(s.Size), int64(s.Start), int(s.Cat)))
	}
	// App-plane and streamed-source runs fold their shaping parameters
	// into the hash; both additions are gated so every pre-existing
	// config keeps its label.
	if a := rc.App; a != nil {
		parts = append(parts, fmt.Sprintf("app=%d/%d/%d/%d/%d:%d,%d-%d,dl=%d,ma=%d,rb=%d",
			a.Requests, int64(a.Interval), a.Clients, a.FanIn, a.Quorum,
			int64(a.ReqSize), int64(a.RespMin), int64(a.RespMax),
			int64(a.Deadline), a.MaxAttempts, a.RetryBudget))
		if a.Policy != nil {
			parts = append(parts, "policy="+a.Policy.Name())
		}
		if a.Breaker.Enabled() {
			parts = append(parts, fmt.Sprintf("brk=%d/%g/%d",
				a.Breaker.Window, a.Breaker.Threshold, int64(a.Breaker.Cooldown)))
		}
	}
	if rc.Source != nil {
		parts = append(parts, "src="+rc.SourceLabel)
	}
	return sanitizeLabel(rc.Scheme.Name) + "-" + metrics.HashStrings(parts...)
}

// sanitizeLabel maps a scheme name to a filesystem-safe slug.
func sanitizeLabel(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	out := strings.Trim(b.String(), "-")
	for strings.Contains(out, "--") {
		out = strings.ReplaceAll(out, "--", "-")
	}
	if out == "" {
		out = "run"
	}
	return out
}

// TablesHash folds rendered tables into the manifest's content hash.
func TablesHash(tables []Table) string {
	parts := make([]string, len(tables))
	for i := range tables {
		parts[i] = tables[i].String()
	}
	return metrics.HashStrings(parts...)
}

// WriteObsManifest writes <dir>/<experiment>/manifest.json describing
// the experiment's observability output and returns its path. The
// file list is the directory's data files in sorted (deterministic)
// order.
func WriteObsManifest(o Options, experiment string, tables []Table) (string, error) {
	o = o.norm()
	dir := filepath.Join(o.Obs.Dir, experiment)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var files []string
	for _, e := range entries { // ReadDir sorts by name
		name := e.Name()
		if e.IsDir() || name == "manifest.json" || strings.HasPrefix(name, ".") {
			continue
		}
		files = append(files, name)
	}
	titles := make([]string, len(tables))
	for i := range tables {
		titles[i] = tables[i].Title
	}
	m := &metrics.Manifest{
		Format:         metrics.ManifestFormat,
		Experiment:     experiment,
		Scale:          o.Scale,
		Seed:           o.Seed,
		Parallelism:    o.Parallelism,
		SamplePeriodPs: int64(o.Obs.period()),
		TableHash:      TablesHash(tables),
		Tables:         titles,
		Files:          files,
	}
	path := filepath.Join(dir, "manifest.json")
	return path, m.Write(path)
}

// RunByID runs one registered experiment, labelling any observability
// output with the experiment id and writing its manifest.
func RunByID(id string, o Options) ([]Table, error) {
	e, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	o = o.norm()
	o.Obs.Experiment = id
	tables := e.Run(o)
	if o.Obs.Enabled() {
		if _, err := WriteObsManifest(o, id, tables); err != nil {
			return tables, fmt.Errorf("exp: writing obs manifest for %s: %w", id, err)
		}
	}
	return tables, nil
}
