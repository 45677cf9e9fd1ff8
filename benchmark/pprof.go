package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// cpuShares decodes a runtime/pprof CPU profile (gzip'd profile.proto) and
// returns each layer's share of the samples by flat time: a sample belongs
// to the package of its leaf function. share x run_cpu_s is the layer's
// host self time. Only the fields needed are read:
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (first = leaf), 2 value (last = cpu ns)
//	Location: 1 id, 4 line (first = innermost inlined frame)
//	Line:     1 function_id
//	Function: 1 id, 2 name (string_table index)
func cpuShares(gz []byte) (map[string]float64, error) {
	shares := make(map[string]float64, len(cpuShareBuckets))
	for _, b := range cpuShareBuckets {
		shares[b] = 0
	}
	if len(gz) == 0 {
		return shares, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return shares, fmt.Errorf("decode profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return shares, fmt.Errorf("decode profile: %w", err)
	}

	type sample struct {
		leaf  uint64
		value int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{}  // location id -> leaf function id
	funcName := map[uint64]uint64{} // function id -> name string index
	var strs []string

	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				ids, err := repeated(v, b)
				if err != nil {
					return err
				}
				switch {
				case num == 1 && first && len(ids) > 0:
					s.leaf, first = ids[0], false
				case num == 2 && len(ids) > 0:
					s.value = int64(ids[len(ids)-1])
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4:
			var id, fn uint64
			seen := false
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !seen:
					seen = true
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5:
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return shares, fmt.Errorf("decode profile: %w", err)
	}

	var total float64
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.leaf]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		shares[bucketOf(name)] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for b := range shares {
			shares[b] /= total
		}
	}
	return shares, nil
}

// bucketOf maps a function's full name to its cpu-share layer.
func bucketOf(fn string) string {
	const mod = "github.com/mcn-arch/mcn/internal/"
	if rest, ok := strings.CutPrefix(fn, mod); ok {
		pkg := rest
		if i := strings.IndexAny(rest, ".("); i >= 0 {
			pkg = rest[:i]
		}
		switch pkg {
		case "sim", "netstack", "mcnt", "core", "cpu", "dram", "ethdev", "kvstore", "serve":
			return pkg
		case "sram", "memmap":
			return "sram_memmap"
		case "mpi", "npb":
			return "mpi_npb"
		}
		return "other"
	}
	// Goroutine hand-off, scheduler, GC, memmove and the locks under them.
	for _, p := range []string{"runtime.", "runtime/", "internal/runtime/", "internal/abi.", "internal/bytealg.", "internal/cpu.", "sync.", "sync/atomic.", "gogo", "memeqbody", "cmpbody", "indexbytebody", "aeshashbody"} {
		if strings.HasPrefix(fn, p) {
			return "runtime"
		}
	}
	return "other"
}

// fields walks one protobuf message, calling fn with each field's number
// and its varint value (wire type 0) or bytes (wire type 2).
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d in field %d", wire, num)
		}
	}
	return nil
}

// repeated returns a repeated varint field's values, packed (b) or not (v).
func repeated(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("bad packed varint")
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
