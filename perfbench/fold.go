package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is folded to layers by reading runtime/pprof's output
// directly: a gzipped profile.proto message. Only the fields the fold
// needs are decoded (samples, locations, functions, strings), with a
// minimal protobuf reader, so the benchmark needs nothing beyond the
// standard library.

// layers are the simulator packages reported as cpu.<layer>. A sample
// belongs to the innermost frame under tcplp/internal/; tcplp/cc counts
// as tcplp and obs/journey as obs. Samples with no such frame (GC
// workers, the scheduler, the benchmark itself) count as runtime, and
// other internal packages (app, ip6, scenario, udp, ...) as other.
var layers = []string{"sim", "phy", "mac", "sixlowpan", "mesh", "stack",
	"tcplp", "coap", "gateway", "netem", "obs", "runtime", "other"}

const internalPrefix = "tcplp/internal/"

// layerOf maps a function name to its layer, or "" when the function
// is outside the simulator's internal packages.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return "other"
}

// foldProfile returns the CPU sample count per layer.
func foldProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		layer := "runtime"
	walk:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := layerOf(p.strings[p.funcName[fn]]); l != "" {
					layer = l
					break walk
				}
			}
		}
		out[layer] += s.count
	}
	return out, nil
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

// Field numbers of profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
	sampleLocation  = 1
	sampleValue     = 2
	locID           = 1
	locLine         = 4
	lineFunction    = 1
	funcID          = 1
	funcName        = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case profSample:
			var s sample
			var values []uint64
			err := eachField(msg, func(num int, v uint64, packed []byte) error {
				switch num {
				case sampleLocation:
					return eachVarint(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return eachVarint(v, packed, func(x uint64) { values = append(values, x) })
				}
				return nil
			})
			if len(values) > 0 {
				s.count = int64(values[0]) // runtime/pprof: samples, then cpu ns
			}
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, line []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return eachField(line, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function name index %d outside string table", idx)
		}
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField calls f for every field of a protobuf message: varint
// fields pass their value, length-delimited fields their bytes. Fixed
// 32/64-bit fields are skipped; the fold reads none.
func eachField(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = varint(b); n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field, packed (data != nil) or
// not (one value v per occurrence).
func eachVarint(v uint64, packed []byte, f func(uint64)) error {
	if packed == nil {
		f(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := varint(packed)
		if n == 0 {
			return errTruncated
		}
		f(x)
		packed = packed[n:]
	}
	return nil
}

// varint decodes one base-128 varint, returning 0 bytes read on error.
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
