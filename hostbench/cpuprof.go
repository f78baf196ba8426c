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

// internalModules are the simulator's modules under internal/, the
// groups CPU samples fold into. lang covers its parser, bytecode, vm
// and jit packages. TestModulesMatchTree keeps the list in step with
// the tree.
var internalModules = []string{
	"annotate", "chunk", "cluster", "core", "couchdb", "events", "experiments",
	"faults", "fs", "insight", "lang", "lifecycle", "mem", "metrics", "msgbus",
	"netsim", "platform", "runtime", "sandbox", "snapshot", "stats", "telemetry",
	"timeseries", "trace", "tracegen", "vclock", "vmm", "workflow", "workloads",
}

// cpuGroups lists every group a sample can fold into: cpu.<module> for
// each internal module, then go_gc, go_alloc and other.
func cpuGroups() []string {
	return append(append([]string(nil), internalModules...), "go_gc", "go_alloc", "other")
}

// stack is one profile sample: function names leaf first, and its
// weight (sample count).
type stack struct {
	frames []string
	weight int64
}

// gcFrames mark a sample as garbage-collector work: a background mark
// worker, a mutator assist, or the background sweeper and scavenger.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
}

const internalPrefix = "repro/internal/"

// classify returns the group of one sample:
//   - go_gc if any frame is a GC worker or assist;
//   - else go_alloc if any frame is runtime.mallocgc;
//   - else the module of the innermost repro/internal/<module> frame;
//   - else other.
func classify(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "go_gc"
			}
		}
	}
	for _, f := range frames {
		if f == "runtime.mallocgc" {
			return "go_alloc"
		}
	}
	for _, f := range frames {
		if mod, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexAny(mod, "./"); i >= 0 {
				mod = mod[:i]
			}
			return mod
		}
	}
	return "other"
}

// foldShares folds samples into the share of total weight per group.
// Every group of cpuGroups is present; with any weight the shares sum
// to 1.
func foldShares(samples []stack) map[string]float64 {
	out := make(map[string]float64)
	for _, g := range cpuGroups() {
		out[g] = 0
	}
	var total int64
	for _, s := range samples {
		total += s.weight
	}
	if total == 0 {
		return out
	}
	for _, s := range samples {
		g := classify(s.frames)
		if _, known := out[g]; !known {
			g = "other"
		}
		out[g] += float64(s.weight) / float64(total)
	}
	return out
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes into samples, weighting each by its first value (the sample
// count). Only the fields the fold needs are read.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		value int64
	}
	var (
		samples   []rawSample
		locFuncs  = make(map[uint64][]uint64) // location -> function ids, innermost first
		funcNames = make(map[uint64]int64)    // function -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			first := true
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids, err := varints(wire, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vals, err := varints(wire, v, b)
					if first && len(vals) > 0 {
						s.value, first = int64(vals[0]), false
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{weight: s.value}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint/fixed value or its bytes.
func eachField(b []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated varint field's values, packed (wire type
// 2) or not.
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
