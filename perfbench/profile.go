package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modules are the repository's layers, in the order the per-layer CPU
// shares are reported. Samples are charged to the innermost frame of one of
// these packages ("bandslim" is the root front-end package).
var modules = []string{
	"bandslim", "shard", "driver", "nvme", "pcie", "dma", "device", "pagebuf",
	"vlog", "lsm", "nand", "ftl", "cache", "resp", "server", "workload",
}

// supportPkgs are helper packages whose cost belongs to the layer calling
// them, so attribution walks past their frames to the caller.
var supportPkgs = map[string]bool{
	"sim": true, "metrics": true, "trace": true, "spans": true,
	"timeseries": true, "fault": true, "pool": true,
}

// Buckets for samples with no layer frame on the stack.
const (
	bucketHarness = "harness"  // the benchmark's own code, incl. its RESP clients
	bucketGC      = "go_gc"    // runtime-only stacks doing garbage collection
	bucketSched   = "go_sched" // every other runtime-only stack: scheduler, netpoll, idle
)

// cpuBuckets lists every bucket a sample may be charged to.
func cpuBuckets() []string {
	return append(append([]string(nil), modules...), bucketSched, bucketGC, bucketHarness)
}

// cpuWeights decodes a gzipped pprof CPU profile and returns the CPU time
// charged to each bucket, plus the number of samples taken.
func cpuWeights(prof []byte) (map[string]int64, int64, error) {
	p, err := decodeProfile(prof)
	if err != nil {
		return nil, 0, err
	}
	weight := make(map[string]int64)
	var samples int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		// values[0] is the sample count, the last value its CPU time.
		weight[p.bucketOf(s.locs)] += s.values[len(s.values)-1]
		samples += s.values[0]
	}
	return weight, samples, nil
}

// cpuShares turns bucket weights into each bucket's share of the total.
func cpuShares(weight map[string]int64) map[string]float64 {
	var total int64
	for _, w := range weight {
		total += w
	}
	shares := make(map[string]float64)
	for _, b := range cpuBuckets() {
		shares[b] = 0
		if total > 0 {
			shares[b] = float64(weight[b]) / float64(total)
		}
	}
	return shares
}

// bucketOf charges one stack (leaf first) to a layer or a fallback bucket.
func (p *profile) bucketOf(locs []uint64) string {
	harness, gc := false, false
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] { // innermost inlined frame first
			name := p.funcName[fn]
			if mod, ok := layerOf(name); ok {
				return mod
			}
			switch {
			case strings.HasPrefix(name, "main."):
				harness = true
			case strings.HasPrefix(name, "runtime.gc"), strings.HasPrefix(name, "runtime.markroot"),
				name == "runtime.bgsweep", name == "runtime.bgscavenge", name == "runtime._GC":
				gc = true
			}
		}
	}
	switch {
	case harness:
		return bucketHarness
	case gc:
		return bucketGC
	}
	return bucketSched
}

// layerOf maps a function name such as "bandslim/internal/lsm.(*Tree).merge"
// to its layer, reporting false for support packages and foreign code.
func layerOf(name string) (string, bool) {
	if i := strings.IndexByte(name, '['); i >= 0 { // generic instantiation
		name = name[:i]
	}
	var pkg string
	switch {
	case strings.HasPrefix(name, "bandslim."):
		pkg = "bandslim"
	case strings.HasPrefix(name, "bandslim/internal/"):
		rest := name[len("bandslim/internal/"):]
		i := strings.IndexByte(rest, '.')
		if i < 0 {
			return "", false
		}
		pkg = rest[:i]
	default:
		return "", false
	}
	if supportPkgs[pkg] {
		return "", false
	}
	return pkg, true
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]string   // function id -> name
}

type sample struct {
	locs   []uint64 // location ids, leaf first
	values []int64
}

// decodeProfile parses the gzipped protobuf runtime/pprof writes. Field
// numbers follow github.com/google/pprof/proto/profile.proto.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]string)}
	var strs []string
	funcStr := make(map[uint64]int64) // function id -> string table index
	err = walk(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := walk(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walk(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return walk(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walk(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcStr[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for id, si := range funcStr {
		if si >= 0 && si < int64(len(strs)) {
			p.funcName[id] = strs[si]
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field that arrived either as one
// varint (b == nil) or packed into a length-delimited run.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// walk visits each field of one protobuf message: varints arrive in v with
// b == nil, length-delimited fields in b; fixed-width fields are skipped.
func walk(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errTruncated
			}
			msg = msg[w:]
		case 2:
			l, n := varint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning its length (0 if truncated).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
