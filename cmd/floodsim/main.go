// Command floodsim reproduces the paper's evaluation from the command
// line: every table and figure is a named experiment that prints the
// corresponding rows.
//
//	floodsim -list
//	floodsim -exp fig10 -scale 0.25
//	floodsim -exp all -scale 0.5 -seed 7 -par 8
//	floodsim -exp fig6 -obs out/ -sample 10us
//	floodsim -exp fig2 -obs out/ -forensics
//	floodsim -faults list
//	floodsim -faults storm -seed 7
//	floodsim -topo list
//	floodsim -exp scaleincast -topo clos100k
//
// -topo selects a large-fabric preset for the scaleincast experiment
// (structural routing makes the 102,400-host Clos affordable); other
// experiments pin the paper fabrics and ignore it.
//
// -faults runs one named fault-injection scenario (link flaps, switch
// restarts, Gilbert–Elliott burst loss, ...) from the fault matrix
// against DCQCN and DCQCN+Floodgate; `-faults list` prints the menu,
// and `-exp faultmatrix` runs the whole matrix.
//
// With -obs, every simulation additionally writes NDJSON/CSV metric
// time series and a Chrome trace_event timeline (open in Perfetto)
// under <dir>/<experiment>/, plus a manifest.json recording the run
// parameters and a hash of the printed tables. These files are
// byte-identical at every -par setting.
//
// -forensics (requires -obs) adds causal flow forensics: every run
// also writes <label>.forensics.ndjson — a per-flow FCT time budget
// (serialization, queueing, PFC, VOQ-parked, credit-in-flight, ...)
// plus detected incast episodes — and the fig2/faultmatrix tables gain
// attribution columns with a "why was p99 slow" summary.
//
// Scale 1 is the paper's 160-host 100/400 Gbps fabric (slow; see
// DESIGN.md for the slow-motion scale model that keeps smaller runs
// faithful in shape). Independent simulations run across a worker
// pool (-par, default all cores); the printed tables are bit-identical
// at every parallelism, and -par 1 reproduces the serial path exactly.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"floodgate"
)

func main() {
	var (
		expID      = flag.String("exp", "", "experiment id (see -list), or 'all'")
		scale      = flag.Float64("scale", 0.25, "fabric scale in (0,1]; 1 = paper scale")
		seed       = flag.Uint64("seed", 1, "workload/simulation seed")
		par        = flag.Int("par", 0, "max concurrent simulations; 0 = all cores, 1 = serial")
		list       = flag.Bool("list", false, "list available experiments")
		obsDir     = flag.String("obs", "", "write per-run metrics/timeline files under this directory")
		sample     = flag.Duration("sample", 0, "metrics sampling period on the simulation clock (e.g. 10us); 0 = default")
		faults     = flag.String("faults", "", "run one fault-injection scenario, or 'list'")
		topoName   = flag.String("topo", "", "large-fabric preset for -exp scaleincast (clos, clos100k, fattree16, fattree32), or 'list'")
		forensics  = flag.Bool("forensics", false, "causal flow forensics: FCT time-budget attribution + incast episodes (requires -obs; writes <label>.forensics.ndjson)")
		appOn      = flag.Bool("app", false, "overlay the closed-loop application plane on experiments that support it (adds SLO columns to faultmatrix); 'sloincast' runs it regardless")
		flowsFrom  = flag.String("flows-from", "", "replay an NDJSON flow file (one {src,dst,size,start_ps,cat} object per line, sorted by start_ps)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if err := validateForensics(*forensics, *obsDir); err != nil {
		fmt.Fprintln(os.Stderr, "floodsim:", err)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "floodsim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "floodsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "floodsim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "floodsim:", err)
			}
		}()
	}

	if *topoName == "list" {
		fmt.Println("topology presets (floodsim -exp scaleincast -topo <name>):")
		for _, p := range floodgate.TopoPresets() {
			fmt.Printf("  %-10s %s\n", p[0], p[1])
		}
		return
	}
	if err := validateTopo(*topoName); err != nil {
		fmt.Fprintln(os.Stderr, "floodsim:", err)
		os.Exit(2)
	}

	if *faults == "list" {
		fmt.Println("fault scenarios (floodsim -faults <name>):")
		for _, n := range floodgate.FaultScenarioNames() {
			fmt.Printf("  %s\n", n)
		}
		return
	}
	if *flowsFrom != "" {
		o := floodgate.Options{Scale: *scale, Seed: *seed, Parallelism: *par}
		start := time.Now() //lint:allow walltime progress reporting times the real run, not the simulation
		tables, err := floodgate.RunFlowFile(*flowsFrom, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "floodsim:", err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t.String())
		}
		fmt.Printf("[flows-from %s done in %v at scale %.2f]\n", *flowsFrom,
			time.Since(start).Round(time.Millisecond), *scale) //lint:allow walltime progress reporting times the real run, not the simulation
		return
	}

	if *faults != "" {
		o := floodgate.Options{Scale: *scale, Seed: *seed, Parallelism: *par, App: *appOn}
		start := time.Now() //lint:allow walltime progress reporting times the real run, not the simulation
		tables, err := floodgate.RunFaultScenario(*faults, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "floodsim:", err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t.String())
		}
		fmt.Printf("[faults/%s done in %v at scale %.2f]\n", *faults,
			time.Since(start).Round(time.Millisecond), *scale) //lint:allow walltime progress reporting times the real run, not the simulation
		return
	}

	if *list || *expID == "" {
		fmt.Println("available experiments:")
		for _, e := range floodgate.Experiments() {
			fmt.Printf("  %-12s %s\n", e.ID, e.Title)
		}
		if *expID == "" && !*list {
			fmt.Println("\nusage: floodsim -exp <id|all> [-scale S] [-seed N] [-par N]")
			os.Exit(2)
		}
		return
	}

	o := floodgate.Options{Scale: *scale, Seed: *seed, Parallelism: *par, App: *appOn, Topo: *topoName}
	if *obsDir != "" {
		o.Obs = floodgate.ObsConfig{Dir: *obsDir, Period: floodgate.FromNanos(sample.Nanoseconds())}
	}
	o.Obs.Forensics = *forensics
	print := func(id string, tables []floodgate.Table, elapsed time.Duration) {
		for _, t := range tables {
			fmt.Println(t.String())
		}
		fmt.Printf("[%s done in %v at scale %.2f]\n\n", id, elapsed.Round(time.Millisecond), *scale)
	}

	if *expID == "all" {
		var ids []string
		for _, e := range floodgate.Experiments() {
			if e.ID == "fig8" {
				continue // the per-CC variants cover it without tripling runtime
			}
			ids = append(ids, e.ID)
		}
		// Whole experiments overlap through the shared pool; tables still
		// print in paper order. Elapsed is measured from the batch start:
		// with overlap, per-experiment wall time is not meaningful.
		start := time.Now() //lint:allow walltime progress reporting times the real run, not the simulation
		failed := false
		floodgate.RunExperiments(ids, o, func(id string, tables []floodgate.Table, err error) {
			if err != nil {
				fmt.Fprintln(os.Stderr, "floodsim:", err)
				failed = true
				return
			}
			print(id, tables, time.Since(start)) //lint:allow walltime progress reporting times the real run, not the simulation
		})
		if failed {
			os.Exit(1)
		}
		return
	}

	start := time.Now() //lint:allow walltime progress reporting times the real run, not the simulation
	tables, err := floodgate.RunExperiment(*expID, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "floodsim:", err)
		os.Exit(1)
	}
	print(*expID, tables, time.Since(start)) //lint:allow walltime progress reporting times the real run, not the simulation
}

// validateForensics rejects -forensics without an -obs directory: the
// forensics report is file output (NDJSON beside the run's metric
// files), so without a destination directory the flag would silently
// record attribution and throw it away. Pairing the flags keeps the
// CLI contract honest; the exp API allows Forensics without Dir for
// in-process consumers (tests read RunResult.Forensics directly).
func validateForensics(forensics bool, obsDir string) error {
	if forensics && obsDir == "" {
		return fmt.Errorf("-forensics needs -obs <dir> to write the report: add -obs out/ (the NDJSON lands at <dir>/<experiment>/<label>.forensics.ndjson)")
	}
	return nil
}

// validateTopo rejects unknown -topo preset names up front, before
// any experiment runs; only scaleincast reads the preset (other
// experiments pin the paper fabrics), so a typo would otherwise
// surface minutes into an -exp all batch.
func validateTopo(name string) error {
	if name == "" {
		return nil
	}
	var names []string
	for _, p := range floodgate.TopoPresets() {
		if p[0] == name {
			return nil
		}
		names = append(names, p[0])
	}
	return fmt.Errorf("unknown -topo %q (have %v, or 'list')", name, names)
}
