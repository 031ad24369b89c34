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

// layers are the repo's modules a profile sample can be charged to, in
// report order. "runtime" takes every sample with no repo frame: Go's
// allocator, GC and scheduler, plus the benchmark's own loop.
var layers = []string{"sim", "rdma", "cpusim", "nvm", "protocol", "txn", "shard", "kvstore", "runtime"}

// layerOf maps a hyperloop/internal module to its layer. Helper modules
// (ring, ycsb, metrics, ...) map to "" and are skipped, so their samples
// go to the layer that called them: a ring push inside a QP is rdma work.
func layerOf(module string) string {
	switch module {
	case "sim", "rdma", "cpusim", "nvm", "shard", "kvstore":
		return module
	case "protocol", "hyperloop", "naive":
		return "protocol"
	case "txn", "wal":
		return "txn"
	}
	return ""
}

const repoPrefix = "hyperloop/internal/"

// attribute charges one sample to the layer of its innermost repo frame.
// stack lists function names leaf first, inlined frames included, so a
// runtime.memmove called from nvm.(*Device).Write counts as nvm.
func attribute(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, repoPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		if l := layerOf(rest); l != "" {
			return l
		}
	}
	return "runtime"
}

// profileLayers decodes a gzipped pprof CPU profile, as runtime/pprof
// writes it, and returns sample counts per layer.
func profileLayers(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				stack = append(stack, p.funcName[fid])
			}
		}
		if len(s.values) > 0 {
			out[attribute(stack)] += s.values[0]
		}
	}
	return out, nil
}

// profile holds the parts of a pprof profile.proto attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]string
}

type sample struct {
	locs   []uint64 // location ids, leaf first
	values []int64
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]string)}
	var strs []string
	nameIdx := make(map[uint64]uint64) // function id -> string index
	err := fields(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case fProfileSample:
			var s sample
			err := fields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case fSampleLocation:
					return repeated(wire, v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return repeated(wire, v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var funcs []uint64
			err := fields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return fields(data, func(num, wire int, v uint64, _ []byte) error {
						if num == fLineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case fProfileFunction:
			var id, name uint64
			err := fields(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				}
				return nil
			})
			nameIdx[id] = name
			return err
		case fProfileStrings:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for id, si := range nameIdx {
		if si >= uint64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, si, len(strs))
		}
		p.funcName[id] = strs[si]
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks the protobuf message b, calling fn with each field's number
// and wire type and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = uvarint(b); n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field in either encoding: one value
// per field (wire type 0) or packed (wire type 2).
func repeated(wire int, v uint64, data []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n == 0 {
			return errTruncated
		}
		add(x)
		data = data[n:]
	}
	return nil
}

// uvarint decodes a base-128 varint, returning n == 0 on malformed input.
func uvarint(b []byte) (uint64, int) {
	x, n := binary.Uvarint(b)
	if n < 0 {
		return 0, 0
	}
	return x, n
}
