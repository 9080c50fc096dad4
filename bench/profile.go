package bench

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layers are the host-time buckets of a CPU profile, in report order:
// the repository's layers, then "guest" (building the guest program and
// its input), "runtime" (Go runtime work with no repository frame on the
// stack, such as background GC), "bench" (this harness: its HTTP
// clients, checks and bookkeeping) and "other" (anything unattributed).
var Layers = []string{
	"vm", "pin", "core", "quad", "flatprof", "memsim", "etrace",
	"study", "phase", "jobd", "obs", "guest", "runtime", "bench", "other",
}

// layerPackages lists the packages under tquad/internal in each layer.
// A package missing here folds into "other"; the fold test fails when
// one is added without an entry.
var layerPackages = map[string][]string{
	"vm":       {"vm", "mem", "isa", "gos"},
	"pin":      {"pin", "cfg", "callstack"},
	"core":     {"core"},
	"quad":     {"quad", "shadow"},
	"flatprof": {"flatprof"},
	"memsim":   {"memsim"},
	"etrace":   {"etrace"},
	"study":    {"study", "report", "plot", "trace", "cluster", "chaos", "cliutil"},
	"phase":    {"phase"},
	"jobd":     {"jobd", "obs/live"},
	"obs":      {"obs"},
	"guest":    {"hl", "asm", "glibc", "wfs", "wav", "image", "imgproc", "dsp"},
}

// funcPackage returns the import path of a symbolised Go function name
// such as "tquad/internal/vm.(*Machine).Run" or "runtime.mallocgc".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may hold other import paths
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// packageLayer returns the layer of a repository package, or "" for a
// package outside the repository.
func packageLayer(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "tquad/internal/"); ok {
		for l, pkgs := range layerPackages {
			for _, p := range pkgs {
				if p == rest {
					return l
				}
			}
		}
		return "other"
	}
	if pkg == "tquad/bench" || strings.HasPrefix(pkg, "tquad/bench/") {
		return "bench"
	}
	return ""
}

// stackLayer attributes one sampled stack (leaf first) to the layer of
// its innermost repository frame, so standard-library and runtime work
// (allocation, hashing, syscalls) counts against the layer that asked
// for it.  Stacks with no repository frame are the runtime's own work
// when their leaf is in the runtime, else "other".
func stackLayer(funcs []string) string {
	for _, f := range funcs {
		if l := packageLayer(funcPackage(f)); l != "" {
			return l
		}
	}
	if len(funcs) > 0 {
		pkg := funcPackage(funcs[0])
		if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/") {
			return "runtime"
		}
	}
	return "other"
}

// FoldCPU reads a CPU profile written by runtime/pprof and returns the
// sampled CPU seconds of each layer.
func FoldCPU(r io.Reader) (map[string]float64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds]; the last
	// value is the time.
	out := make(map[string]float64)
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		var funcs []string
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				if idx := p.funcNames[fid]; idx >= 0 && idx < int64(len(p.strs)) {
					funcs = append(funcs, p.strs[idx])
				}
			}
		}
		out[stackLayer(funcs)] += float64(s.values[len(s.values)-1]) / 1e9
	}
	return out, nil
}

// profile is the subset of the pprof protobuf message FoldCPU needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strs      []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// Field numbers of profile.proto (github.com/google/pprof).
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profString   = 6

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID   = 1
	funcName = 2
)

var errTruncated = errors.New("truncated protobuf")

// field is one decoded protobuf field: a varint value or a byte payload.
type field struct {
	num  int
	wire int
	v    uint64
	data []byte
}

// fields decodes a protobuf message into its fields, skipping fixed-width
// ones, which profile.proto does not use.
func fields(b []byte) ([]field, error) {
	var out []field
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
			continue
		default:
			return nil, fmt.Errorf("unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, whether it was
// written packed (one length-delimited run) or one value per field.
func (f field) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func parseProfile(b []byte) (*profile, error) {
	top, err := fields(b)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: make(map[uint64][]uint64), funcNames: make(map[uint64]int64)}
	for _, f := range top {
		switch f.num {
		case profString:
			p.strs = append(p.strs, string(f.data))
		case profSample:
			var s sample
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			for _, sf := range sub {
				vs, err := sf.varints()
				if err != nil {
					return nil, err
				}
				switch sf.num {
				case sampleLocation:
					s.locs = append(s.locs, vs...)
				case sampleValue:
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case profLocation:
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var funcs []uint64
			for _, lf := range sub {
				switch lf.num {
				case locID:
					id = lf.v
				case locLine:
					line, err := fields(lf.data)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == lineFunction {
							funcs = append(funcs, l.v)
						}
					}
				}
			}
			p.locFuncs[id] = funcs
		case profFunction:
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, ff := range sub {
				switch ff.num {
				case funcID:
					id = ff.v
				case funcName:
					name = int64(ff.v)
				}
			}
			p.funcNames[id] = name
		}
	}
	return p, nil
}
