package device

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestModulesReachSinksOnlyThroughProbe keeps the layering from
// drifting back: the flow-control modules and the application plane
// feed stats, metrics, trace and forensics only through Probe, so
// none of their non-test files may import a sink package.
func TestModulesReachSinksOnlyThroughProbe(t *testing.T) {
	sinks := map[string]bool{
		"floodgate/internal/stats":     true,
		"floodgate/internal/metrics":   true,
		"floodgate/internal/trace":     true,
		"floodgate/internal/forensics": true,
	}
	for _, pkg := range []string{"core", "app", "pfctag", "bfc"} {
		dir := filepath.Join("..", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := 0
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			files++
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); sinks[p] {
					t.Errorf("%s imports %s; emit through device.Probe instead", path, p)
				}
			}
		}
		if files == 0 {
			t.Errorf("no Go files found in %s", dir)
		}
	}
}
