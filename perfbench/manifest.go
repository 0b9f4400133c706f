package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// manifest identifies what produced a record: toolchain, machine,
// code and inputs.
type manifest struct {
	Workload    string `json:"workload"`
	Seed        uint64 `json:"seed"`
	HeldOutSeed uint64 `json:"held_out_seed"`
	Digest      string `json:"digest"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NProc       int    `json:"nproc"`
	CPUModel    string `json:"cpu_model"`
	GOGC        string `json:"gogc"`
	GitCommit   string `json:"git_commit"`
	SourceHash  string `json:"source_sha256"`
}

func newManifest(o options) manifest {
	gogc := "off"
	if pct := int64(readMetric(mGOGC).Uint64()); pct >= 0 {
		gogc = strconv.FormatInt(pct, 10)
	}
	return manifest{
		Workload:    o.workload,
		Seed:        o.seed,
		HeldOutSeed: heldOutSeed,
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		CPUModel:    cpuModel(),
		GOGC:        gogc,
		GitCommit:   gitCommit(),
		SourceHash:  sourceHash("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the revision the binary was built from, when the build
// ran inside a git work tree; a plain source checkout has none.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceHash hashes every Go source and module file under root (paths
// and contents, in path order), so records from checkouts without git
// still identify the code they measured.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the hash
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(p) + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
