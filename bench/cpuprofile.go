package bench

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile is a gzip-compressed protobuf (pprof's profile.proto).
// The decoder below reads only what attribution needs: each sample's
// location stack and value, each location's function, and each function's
// name. Field numbers are from profile.proto.

var errProfile = errors.New("bench: malformed CPU profile")

// pbuf is a protobuf wire-format reader over one message.
type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProfile
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProfile
}

// next returns the next field: its number, and either its varint value
// (wire type 0) or its bytes (wire type 2). Fixed-width fields are skipped
// by returning their bytes.
func (p *pbuf) next() (field int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	var n uint64
	switch key & 7 {
	case 0:
		v, err = p.varint()
		return field, v, nil, err
	case 1:
		n = 8
	case 2:
		if n, err = p.varint(); err != nil {
			return 0, 0, nil, err
		}
	case 5:
		n = 4
	default:
		return 0, 0, nil, errProfile
	}
	if n > uint64(len(p.b)) {
		return 0, 0, nil, errProfile
	}
	data, p.b = p.b[:n], p.b[n:]
	return field, 0, data, nil
}

// repeated appends a repeated integer field's values, packed or not.
func repeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// StackSample is one profile sample: function names leaf first, and the
// sample's weight (CPU nanoseconds).
type StackSample struct {
	Stack  []string
	Weight int64
}

// ParseCPUProfile decodes the output of runtime/pprof.StartCPUProfile.
func ParseCPUProfile(gz []byte) ([]StackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("bench: CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("bench: CPU profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location ID -> function IDs, innermost first
		funcName = map[uint64]uint64{}   // function ID -> string table index
		strtab   []string
	)
	top := pbuf{raw}
	for len(top.b) > 0 {
		field, _, data, err := top.next()
		if err != nil {
			return nil, err
		}
		msg := pbuf{data}
		switch field {
		case 2: // Sample
			var s sample
			for len(msg.b) > 0 {
				f, v, d, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = repeated(s.locs, v, d)
				case 2:
					s.values, err = repeated(s.values, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			for len(msg.b) > 0 {
				f, v, d, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					line := pbuf{d}
					for len(line.b) > 0 {
						lf, lv, _, err := line.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case 5: // Function
			var id, name uint64
			for len(msg.b) > 0 {
				f, v, _, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(data))
		}
	}

	out := make([]StackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ss := StackSample{Weight: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strtab)) {
					ss.Stack = append(ss.Stack, strtab[idx])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// Host layers: CPU time the Go runtime spends on the program's behalf.
const (
	LayerGC     = "host.gc"
	LayerMalloc = "host.malloc"
	LayerOther  = "host.other"
)

// layerOfPackage maps the repository's packages to the layer names the
// per-layer metrics use. core and sched together are the scheduling
// policy; stats is written only alongside telemetry.
var layerOfPackage = map[string]string{
	"repro/internal/experiments": "experiments",
	"repro/internal/sim":         "sim",
	"repro/internal/gpu":         "gpu",
	"repro/internal/workload":    "workload",
	"repro/internal/noc":         "noc",
	"repro/internal/cache":       "cache",
	"repro/internal/addrmap":     "addrmap",
	"repro/internal/memctrl":     "memctrl",
	"repro/internal/core":        "policy",
	"repro/internal/sched":       "policy",
	"repro/internal/dram":        "dram",
	"repro/internal/pim":         "pim",
	"repro/internal/telemetry":   "telemetry",
	"repro/internal/stats":       "telemetry",
	"repro/internal/serve":       "serve",
	"repro/internal/serve/store": "serve.store",
	"repro/internal/journal":     "journal",
}

// CPULayers lists every layer LayerShares can attribute to.
var CPULayers = []string{
	"experiments", "sim", "gpu", "workload", "noc", "cache", "addrmap",
	"memctrl", "policy", "dram", "pim", "telemetry", "serve", "serve.store",
	"journal", LayerGC, LayerMalloc, LayerOther,
}

// packageOf extracts the import path from a Go symbol name such as
// "repro/internal/memctrl.(*Controller).Tick".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain slashes and dots
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// gcRoots are the runtime entry points under which a sample is collector
// work, whoever triggered it; allocRoots the allocator's.
var (
	gcRoots    = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkTermination", "runtime.gcMarkDone"}
	allocRoots = []string{"runtime.mallocgc", "runtime.growslice", "runtime.makeslice", "runtime.newobject"}
)

func hasAny(stack []string, names []string) bool {
	for _, fn := range stack {
		for _, n := range names {
			if fn == n {
				return true
			}
		}
	}
	return false
}

// LayerOf attributes one sample: collector and allocator work go to the
// host layers whatever code asked for them, then the leaf function's
// package decides (self time), and anything outside the mapped packages —
// the rest of the runtime, the standard library, this benchmark — is
// host.other.
func LayerOf(stack []string) string {
	switch {
	case len(stack) == 0:
		return LayerOther
	case hasAny(stack, gcRoots):
		return LayerGC
	case hasAny(stack, allocRoots):
		return LayerMalloc
	}
	if layer, ok := layerOfPackage[packageOf(stack[0])]; ok {
		return layer
	}
	return LayerOther
}

// LayerShares reduces a profile to each layer's share of the sampled CPU
// time; the shares sum to 1 (all zero for an empty profile).
func LayerShares(samples []StackSample) map[string]float64 {
	shares := make(map[string]float64, len(CPULayers))
	var total float64
	for _, s := range samples {
		shares[LayerOf(s.Stack)] += float64(s.Weight)
		total += float64(s.Weight)
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares
}
