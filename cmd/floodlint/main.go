// Command floodlint runs the repository's custom static-analysis suite
// (see internal/lint): determinism, packet-pooling, hot-path
// allocation, units-hygiene and event-ordering
// invariants that ordinary vet/tests cannot express. It loads and
// type-checks every package in the module using only the standard
// library.
//
//	floodlint ./...
//
// Exit status: 0 clean (or every finding baselined), 1 new findings,
// 2 usage or load failure. Findings print as file:line: [rule]
// message, relative to the module root. Suppress a finding with
// //lint:allow <rule> <reason> on (or directly above) the offending
// line; unused allow comments are themselves reported.
//
// A baseline file (.floodlint.baseline.json at the module root, or
// -baseline <path>) grandfathers known findings: they are reported as
// "(baselined)" but do not fail the run, while any finding not in the
// baseline does. Regenerate it after deliberate changes with
// -write-baseline. Machine-readable output: -json writes the report to
// stdout, -sarif <file> writes a SARIF 2.1.0 document for CI.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"floodgate/internal/lint"
)

func main() {
	listRules := flag.Bool("rules", false, "list the rules and exit")
	jsonOut := flag.Bool("json", false, "write the report as JSON to stdout")
	sarifPath := flag.String("sarif", "", "write a SARIF 2.1.0 report to this `file`")
	baselinePath := flag.String("baseline", "", "baseline `file` (default: <module>/"+lint.BaselineFile+" when present)")
	writeBaseline := flag.Bool("write-baseline", false, "write the current findings as the new baseline and exit")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: floodlint [./...]  (always lints the whole module)")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listRules {
		for _, r := range lint.Rules() {
			fmt.Printf("%-12s %s\n", r.Name, r.Doc)
		}
		return
	}

	root, err := moduleRoot()
	if err != nil {
		fail(err)
	}
	l, err := lint.NewLoader(root)
	if err != nil {
		fail(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		fail(err)
	}
	diags := lint.Run(l, pkgs, lint.DefaultConfig(l.Module()))

	bp := *baselinePath
	if bp == "" {
		bp = filepath.Join(root, lint.BaselineFile)
	}
	if *writeBaseline {
		if err := os.WriteFile(bp, lint.NewBaseline(root, diags).Marshal(), 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "floodlint: wrote %d finding(s) to %s\n", len(diags), bp)
		return
	}
	baseline, err := lint.LoadBaseline(bp)
	if err != nil {
		fail(err)
	}
	baselined := baseline.Classify(root, diags)
	report := lint.NewReport(l.Module(), root, diags, baselined)

	if *sarifPath != "" {
		if err := os.WriteFile(*sarifPath, report.SARIF(), 0o644); err != nil {
			fail(err)
		}
	}
	if *jsonOut {
		os.Stdout.Write(report.JSON())
	} else {
		fmt.Print(report.Text())
	}
	if stale := baseline.Stale(root, diags); len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "floodlint: %d baseline entr%s no longer match any finding; run -write-baseline to prune\n",
			len(stale), plural(len(stale), "y", "ies"))
	}
	if report.New > 0 {
		fmt.Fprintf(os.Stderr, "floodlint: %d new finding(s)", report.New)
		if report.Baselined > 0 {
			fmt.Fprintf(os.Stderr, " (%d baselined)", report.Baselined)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "floodlint:", err)
	os.Exit(2)
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
