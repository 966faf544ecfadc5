package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuModules are the modules the profile's self CPU is filed under, by
// the package of the innermost function of each sample; the rest is
// "other" (the benchmark itself, tpcd, dbgen, cost and the standard
// library outside networking).
var cpuModules = []string{"engine", "storage", "btree", "sqlparse", "r3", "val", "wire", "runtime", "other"}

func moduleOf(fn string) string {
	for _, m := range []string{"engine", "storage", "btree", "sqlparse", "r3", "val"} {
		if strings.HasPrefix(fn, "r3bench/internal/"+m+".") || strings.HasPrefix(fn, "r3bench/internal/"+m+"/") {
			return m
		}
	}
	for _, p := range []string{"r3bench/internal/wire.", "r3bench/internal/server.", "r3bench/internal/client.", "net.", "internal/poll.", "syscall.", "bufio."} {
		if strings.HasPrefix(fn, p) {
			return "wire"
		}
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// profile is a CPU profile being recorded into memory.
type profile struct{ buf bytes.Buffer }

func startProfile() (*profile, error) {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns each module's share of the sampled
// CPU time.
func (p *profile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	self, err := selfCPUByFunction(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for fn, v := range self {
		shares[moduleOf(fn)] += v
		total += v
	}
	for k := range shares {
		shares[k] = ratio(shares[k], total)
	}
	return shares, nil
}

func putCPU(put func(string, float64, string), shares map[string]float64) {
	for _, m := range cpuModules {
		put("cpu."+m, shares[m], "ratio")
	}
}

// selfCPUByFunction decodes a gzipped profile.proto and sums the CPU
// nanoseconds of every sample under its innermost function: the first
// line of the sample's first location (later lines are the callers the
// leaf was inlined into).
func selfCPUByFunction(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	type sample struct {
		loc   uint64
		value int64
	}
	var samples []sample
	locFn := map[uint64]uint64{} // location id -> innermost function id
	fnName := map[uint64]int64{} // function id -> string table index
	var strs []string
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			if err := pbFields(b, func(f int, v uint64, bb []byte) error {
				switch f {
				case 1:
					locs = pbRepeated(locs, v, bb)
				case 2:
					for _, x := range pbRepeated(nil, v, bb) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], vals[len(vals)-1]})
			}
		case 4: // Location
			var id, fn uint64
			seenLine := false
			if err := pbFields(b, func(f int, v uint64, bb []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if seenLine {
						return nil
					}
					seenLine = true
					return pbFields(bb, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fn = lv
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFn[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			if err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	out := map[string]float64{}
	for _, s := range samples {
		name := "?"
		if idx, ok := fnName[locFn[s.loc]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		out[name] += float64(s.value)
	}
	return out, nil
}

// pbFields walks the fields of one protobuf message, calling fn with the
// field number and either the varint value or the length-delimited
// bytes. Fixed-width fields are skipped.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
	}
	return nil
}

// pbRepeated appends a repeated varint field given either unpacked (v)
// or packed (data).
func pbRepeated(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
