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

// This file attributes a runtime/pprof CPU profile to layers: every
// sample's leaf function (its flat time) is charged to the package it
// belongs to. The profile is gzipped protocol buffers in the
// profile.proto schema; only the fields needed here are decoded.

// profileLayers are the packages of the module that get a cpu_share,
// by their path under mopac/internal.
var profileLayers = []string{
	"sim", "event", "cpu", "mc", "dram", "mitigation", "oracle", "workload",
	"runkey", "store", "security", "attack", "service", "addrmap", "stats",
}

// gcRoots are runtime functions that, anywhere on a stack, mark the
// sample as garbage collection or allocation work.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.mallocgc", "runtime.gcAssistAlloc",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.gcDrain",
	"runtime.newobject", "runtime.makeslice", "runtime.growslice",
}

// cpuShares returns each attribution group's share of the profile's
// samples, in percent, keyed by metric name: "<layer>.cpu_share",
// "bench.cpu_share" for the benchmark's own code, "go.gc.cpu_share",
// "go.other.cpu_share" and "profile.unattributed".
func cpuShares(raw []byte) (map[string]float64, int64, error) {
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := s.values[0]
		total += v
		counts[p.group(s.locs)] += v
	}
	shares := map[string]float64{}
	for _, l := range profileLayers {
		shares[l+".cpu_share"] = 0
	}
	shares["bench.cpu_share"] = 0
	shares["go.gc.cpu_share"] = 0
	shares["go.other.cpu_share"] = 0
	shares["profile.unattributed"] = 0
	if total == 0 {
		return shares, 0, nil
	}
	for g, c := range counts {
		shares[g] += 100 * float64(c) / float64(total)
	}
	return shares, total, nil
}

// group returns the metric a sample with the given location stack
// (leaf first) is charged to.
func (p *profile) group(locs []uint64) string {
	for _, id := range locs {
		for _, fn := range p.funcs(id) {
			for _, root := range gcRoots {
				if fn == root {
					return "go.gc.cpu_share"
				}
			}
		}
	}
	leaf := p.funcs(locs[0])
	if len(leaf) == 0 {
		return "profile.unattributed"
	}
	pkg := packageOf(leaf[0])
	switch {
	case strings.HasPrefix(pkg, "mopac/internal/"):
		layer := strings.TrimPrefix(pkg, "mopac/internal/")
		for _, l := range profileLayers {
			if l == layer {
				return l + ".cpu_share"
			}
		}
		return "profile.unattributed"
	case pkg == "mopac/perfbench" || pkg == "main":
		return "bench.cpu_share"
	case !strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		// Standard-library paths have no dot in their first element.
		return "go.other.cpu_share"
	}
	return "profile.unattributed"
}

// packageOf returns the import path of a symbol such as
// "mopac/internal/sim.(*System).Run" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profile is the decoded subset of profile.proto.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// funcs returns the names of the functions at a location, innermost
// (inlined) first.
func (p *profile) funcs(loc uint64) []string {
	var out []string
	for _, f := range p.locations[loc] {
		if i, ok := p.functions[f]; ok && i >= 0 && int(i) < len(p.strings) {
			out = append(out, p.strings[i])
		}
	}
	return out
}

func parseProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = walk(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := walk(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walk(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walk(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// walk calls fn for every field of a protobuf message: v holds varint
// values, b length-delimited bytes.
func walk(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errProto
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errProto
			}
			v = binary.LittleEndian.Uint64(data)
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errProto
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errProto
			}
			v = uint64(binary.LittleEndian.Uint32(data))
			data = data[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
