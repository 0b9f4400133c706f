package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the repository modules a CPU profile's self time is
// split into, plus "runtime" (allocator, GC, scheduler, maps) and
// "other" (every remaining package, the benchmark's own included).
var cpuLayers = []string{"sim", "device", "core", "cc", "stats", "topo", "exp", "runtime", "other"}

// layerOf maps a Go symbol name to its cpuLayers entry.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation arguments may contain '/'
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "floodgate/internal/"):
		mod, _, _ := strings.Cut(strings.TrimPrefix(pkg, "floodgate/internal/"), "/")
		for _, l := range cpuLayers {
			if l == mod {
				return l
			}
		}
	}
	return "other"
}

// selfTime adds a gzipped pprof CPU profile's self CPU nanoseconds per
// layer into into. Self time is charged to the innermost frame of each
// sample's leaf location.
func selfTime(gz []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples   []sample
		strs      []string
		funcName  = map[uint64]int64{}  // function id -> string index
		locFunc   = map[uint64]uint64{} // location id -> innermost function id
		sampleErr error
	)
	err = eachField(raw, func(num int, v uint64, b []byte) {
		switch num {
		case 2: // Profile.sample
			var s sample
			first := true
			sampleErr = errors.Join(sampleErr, eachField(b, func(num int, v uint64, b []byte) {
				switch num {
				case 1: // location_id, leaf first
					if first {
						if b != nil {
							v, _ = binary.Uvarint(b)
						}
						s.leaf, first = v, false
					}
				case 2: // value: the last entry is CPU nanoseconds
					if b == nil {
						s.value = int64(v)
						return
					}
					for len(b) > 0 {
						x, n := binary.Uvarint(b)
						if n <= 0 {
							return
						}
						s.value, b = int64(x), b[n:]
					}
				}
			}))
			samples = append(samples, s)
		case 4: // Profile.location
			var id, fn uint64
			seenLine := false
			sampleErr = errors.Join(sampleErr, eachField(b, func(num int, v uint64, b []byte) {
				switch num {
				case 1:
					id = v
				case 4: // line, innermost first
					if !seenLine {
						seenLine = true
						sampleErr = errors.Join(sampleErr, eachField(b, func(num int, v uint64, _ []byte) {
							if num == 1 {
								fn = v
							}
						}))
					}
				}
			}))
			locFunc[id] = fn
		case 5: // Profile.function
			var id uint64
			var name int64
			sampleErr = errors.Join(sampleErr, eachField(b, func(num int, v uint64, _ []byte) {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
	})
	if err = errors.Join(err, sampleErr); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.leaf]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		into[layerOf(name)] += s.value
	}
	return nil
}

// eachField walks one protobuf message. Varint fields arrive as v with
// b nil; length-delimited fields as b (non-nil, possibly empty).
func eachField(msg []byte, fn func(num int, v uint64, b []byte)) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			fn(num, v, nil)
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			fn(num, 0, msg[n:n+int(l)])
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
