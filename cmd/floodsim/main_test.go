package main

import (
	"strings"
	"testing"
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
