package main

import (
	"strings"
	"testing"
	"time"

	"floodgate"
)

// TestValidateForensics pins the flag-pairing contract: -forensics is
// file output, so it is a usage error without an -obs directory, and
// the message must tell the user the fix.
func TestValidateForensics(t *testing.T) {
	cases := []struct {
		name      string
		forensics bool
		obsDir    string
		wantErr   string // "" = accept
	}{
		{"both off", false, "", ""},
		{"obs alone", false, "out", ""},
		{"forensics with obs", true, "out", ""},
		{"forensics without obs", true, "", "needs -obs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateForensics(tc.forensics, tc.obsDir)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateForensics(%t, %q) = %v, want accept", tc.forensics, tc.obsDir, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateForensics(%t, %q) accepted, want error containing %q", tc.forensics, tc.obsDir, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %q, want it to mention %q", err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), "-obs out/") {
				t.Errorf("error = %q, want it to suggest the fix (-obs out/)", err)
			}
		})
	}
}

// TestWithObs pins that the observability, sampling and forensics
// flags reach the Options every run path uses (-exp, -faults and
// -flows-from all share it) without disturbing the run's shape.
func TestWithObs(t *testing.T) {
	base := floodgate.Options{Scale: 0.1, Seed: 7, Parallelism: 2, App: true, Topo: "clos"}
	o := withObs(base, "out", 20*time.Microsecond, true)
	if o.Scale != 0.1 || o.Seed != 7 || o.Parallelism != 2 || !o.App || o.Topo != "clos" {
		t.Errorf("run shape lost: %+v", o)
	}
	if o.Obs.Dir != "out" || o.Obs.Period != floodgate.FromNanos(20000) || !o.Obs.Forensics {
		t.Errorf("obs flags lost: %+v", o.Obs)
	}
	if off := withObs(base, "", 0, false); off.Obs.Enabled() || off.Obs.Forensics {
		t.Errorf("obs on without -obs: %+v", off.Obs)
	}
}
