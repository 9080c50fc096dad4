// QUAD's per-byte analysis on plain Go maps, kept as a test oracle: an
// address→owner map for the last writer, address sets for UnMA and a
// (producer, consumer)→bytes map for the bindings, one map operation per
// byte and no package shadow.  FuzzQUADMatchesMapRef feeds it and the
// page-span tool the same access stream and requires identical reports
// and identical charged overhead.
package quad

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tquad/internal/callstack"
	"tquad/internal/image"
	"tquad/internal/isa"
	"tquad/internal/pin"
	"tquad/internal/vm"
)

// refKernel is one kernel's counters in the oracle.
type refKernel struct {
	name     string
	in       uint64
	readSet  map[uint64]bool
	writeSet map[uint64]bool
}

// mapRef is the oracle: QUAD's read/write/bindings logic, byte by byte.
type mapRef struct {
	opts     Options
	stack    *callstack.Stack
	owners   map[uint64]uint16
	ids      map[string]uint16
	kernels  []*refKernel // index = kernel id (0 unused)
	bindings map[[2]uint16]uint64
	overhead uint64
}

func newMapRef(opts Options, resolve callstack.Resolver) *mapRef {
	opts.setDefaults()
	return &mapRef{
		opts:     opts,
		stack:    callstack.New(resolve, opts.ExcludeLibs),
		owners:   make(map[uint64]uint16),
		ids:      make(map[string]uint16),
		kernels:  []*refKernel{nil},
		bindings: make(map[[2]uint16]uint64),
	}
}

// current resolves the kernel on top of the oracle's call stack.
func (r *mapRef) current() (uint16, bool) {
	fr, ok := r.stack.Current()
	if !ok {
		return 0, false
	}
	id, seen := r.ids[fr.Name]
	if !seen {
		id = uint16(len(r.kernels))
		r.ids[fr.Name] = id
		r.kernels = append(r.kernels, &refKernel{
			name:     fr.Name,
			readSet:  make(map[uint64]bool),
			writeSet: make(map[uint64]bool),
		})
	}
	return id, true
}

// access applies one read or write of [addr, addr+size).
func (r *mapRef) access(addr uint64, size int, isStack, isRead bool) {
	if !r.opts.IncludeStack && isStack {
		r.overhead += r.opts.CostSkip
		return
	}
	me, ok := r.current()
	if !ok {
		r.overhead += r.opts.CostSkip
		return
	}
	r.overhead += r.opts.CostTrace
	k := r.kernels[me]
	if isRead {
		k.in += uint64(size)
	}
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		if isRead {
			k.readSet[a] = true
			r.bindings[[2]uint16{r.owners[a], me}]++
		} else {
			k.writeSet[a] = true
			r.owners[a] = me
		}
	}
}

// report assembles Table II and the QDU edges from the maps.
func (r *mapRef) report() *Report {
	out := make(map[uint16]uint64)
	var bindings []Binding
	for p, bytes := range r.bindings {
		pname := ""
		if p[0] != 0 {
			out[p[0]] += bytes
			pname = r.kernels[p[0]].name
		}
		bindings = append(bindings, Binding{Producer: pname, Consumer: r.kernels[p[1]].name, Bytes: bytes})
	}
	var rows []KernelStats
	for id := 1; id < len(r.kernels); id++ {
		k := r.kernels[id]
		rows = append(rows, KernelStats{
			Name:    k.name,
			In:      k.in,
			InUnMA:  uint64(len(k.readSet)),
			Out:     out[uint16(id)],
			OutUnMA: uint64(len(k.writeSet)),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	sort.Slice(bindings, func(i, j int) bool {
		a, b := bindings[i], bindings[j]
		if a.Bytes != b.Bytes {
			return a.Bytes > b.Bytes
		}
		if a.Producer != b.Producer {
			return a.Producer < b.Producer
		}
		return a.Consumer < b.Consumer
	})
	return &Report{Kernels: rows, Bindings: bindings}
}

// The fuzz guest's address space: three global pages around fuzzGlobal,
// a read-only region no access ever writes, and a stack whose base sits
// just above a page boundary so frames straddle it.
const (
	fuzzGlobal    = 0x10000
	fuzzReadOnly  = 0x80000
	fuzzStackBase = 0x70000010
	fuzzMaxOps    = 512
	fuzzMaxBytes  = 16 << 10 // bounds the per-byte oracle's work per input
)

func fuzzIsStack(addr, sp uint64) bool { return addr >= sp && addr < fuzzStackBase }

// fuzzRoutines are the call targets: main-image kernels, two library
// routines (dropped under ExcludeLibs) and, last, an address with no
// symbol (an anonymous sub_%x frame).
var fuzzRoutines = []struct {
	name string
	kind image.Kind
}{
	{"main", image.Main}, {"producer", image.Main}, {"patcher", image.Main},
	{"consumer", image.Main}, {"memcpy", image.Library}, {"memset", image.Library},
	{"", image.Main},
}

func fuzzEntry(i int) uint64 { return 0x1000 * uint64(i+1) }

// fakeHost is a pin.Host without a machine: the fuzz stream hands its
// events straight to the instrumented instructions.
type fakeHost struct {
	routines   map[uint64]*pin.RTN
	instrument pin.InstrumentFunc
	overhead   uint64
}

func newFakeHost() *fakeHost {
	h := &fakeHost{routines: make(map[uint64]*pin.RTN)}
	for i, r := range fuzzRoutines {
		if r.name == "" {
			continue
		}
		h.routines[fuzzEntry(i)] = &pin.RTN{
			Routine: image.Routine{Name: r.name, Entry: fuzzEntry(i), End: fuzzEntry(i) + 0x100},
			Image:   &image.Image{Kind: r.kind},
		}
	}
	return h
}

func (h *fakeHost) InitSymbols()                                   {}
func (h *fakeHost) INSAddInstrumentFunction(fn pin.InstrumentFunc) { h.instrument = fn }
func (h *fakeHost) ICount() uint64                                 { return 0 }
func (h *fakeHost) Time() uint64                                   { return h.overhead }
func (h *fakeHost) CurrentPC() uint64                              { return 0 }
func (h *fakeHost) ChargeOverhead(n uint64)                        { h.overhead += n }
func (h *fakeHost) IsStackAddr(addr, sp uint64) bool               { return fuzzIsStack(addr, sp) }
func (h *fakeHost) RTNFindByAddress(pc uint64) (*pin.RTN, bool) {
	r, ok := h.routines[pc]
	return r, ok
}

func (h *fakeHost) resolve(target uint64) (string, bool, bool) {
	r, ok := h.routines[target]
	if !ok {
		return "", false, false
	}
	return r.Name(), r.IsInMainImage(), true
}

// runMapRefStream decodes data into an access stream, runs it through a
// fresh tool and a fresh oracle, and compares the two.  data[0] picks
// the mode (bit 0 IncludeStack, bit 1 ExcludeLibs); every following
// 4-byte group [op, a, b, c] is one event:
//
//	op%8 0,1   read           op%8 2,3  write
//	op%8 4     call           op%8 5    return
//	op%8 6     prefetch       op%8 7    predicated-off read or write
//
// b%4 places a read or write: 0 and 1 within 48 bytes of one of the
// three global page boundaries (a picks the byte), 2 around the stack
// pointer, 3 in the read-only region (writes there go to the global
// pages).  c%5 picks the size, 1, 2, 4, 8 or 16 bytes, except that c%16
// == 15 makes it a range of up to 4160 bytes, touching up to three
// pages.  A call's a picks its target and b its frame size.
func runMapRefStream(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	opts := Options{IncludeStack: data[0]&1 != 0, ExcludeLibs: data[0]&2 != 0}
	h := newFakeHost()
	tool := Attach(h, opts)
	ref := newMapRef(opts, h.resolve)

	ins := make(map[isa.Op]*pin.INS)
	dispatch := func(op isa.Op, ev *vm.Event) {
		in := ins[op]
		if in == nil {
			in = &pin.INS{Instr: isa.Instr{Op: op}}
			h.instrument(in)
			ins[op] = in
		}
		in.Dispatch(&pin.Context{Event: ev, Prefetch: in.IsPrefetch()})
	}
	loads := []isa.Op{isa.OpLd1, isa.OpLd2, isa.OpLd4, isa.OpLd8, isa.OpLd16}
	stores := []isa.Op{isa.OpSt1, isa.OpSt2, isa.OpSt4, isa.OpSt8, isa.OpSt16}

	sp := uint64(fuzzStackBase - 8)
	var callerSPs []uint64
	ops, bytes := data[1:], 0
	for n := 0; len(ops) >= 4 && n < fuzzMaxOps && bytes < fuzzMaxBytes; n, ops = n+1, ops[4:] {
		op, a, b, c := ops[0]%8, ops[1], ops[2], ops[3]
		switch op {
		case 4: // call: push the return address, then open a frame
			ev := &vm.Event{Kind: vm.EvCall, Addr: sp - 8, Size: 8, SP: sp,
				Target: fuzzEntry(int(a) % len(fuzzRoutines)), Executed: true}
			dispatch(isa.OpCall, ev)
			ref.access(ev.Addr, ev.Size, true, false)
			ref.stack.OnCall(ev.Target)
			callerSPs = append(callerSPs, sp)
			sp -= 8 + 16*uint64(b%8)
			continue
		case 5: // return: close the frame, then pop the return address
			retSP := sp // an unmatched return pops at the current sp
			if k := len(callerSPs); k > 0 {
				sp, callerSPs = callerSPs[k-1], callerSPs[:k-1]
				retSP = sp - 8
			}
			ev := &vm.Event{Kind: vm.EvReturn, Addr: retSP, Size: 8, SP: retSP, Executed: true}
			dispatch(isa.OpRet, ev)
			ref.access(ev.Addr, ev.Size, true, true)
			ref.stack.OnReturn()
			continue
		}

		isRead := op <= 1 || op == 6 || (op == 7 && a&1 == 0)
		region := b % 4
		if region == 3 && !isRead {
			region = 0
		}
		var addr uint64
		switch region {
		case 0, 1:
			addr = fuzzGlobal + uint64(b%3)*4096 + uint64(a%96) - 48
		case 2:
			addr = sp - 64 + uint64(a)
		case 3:
			addr = fuzzReadOnly + uint64(a)*61
		}
		sizeSel := int(c % 5)
		size := 1 << sizeSel
		if c%16 == 15 {
			size = 1 + (int(a)<<8|int(c))%(4096+64)
		}
		kind, opc := vm.EvRead, loads[sizeSel]
		switch {
		case op == 6:
			opc = isa.OpPrefetch
		case !isRead:
			kind, opc = vm.EvWrite, stores[sizeSel]
		}
		bytes += size
		executed := op != 7
		dispatch(opc, &vm.Event{Kind: kind, Addr: addr, Size: size, SP: sp, Executed: executed})
		switch {
		case !executed:
		case op == 6:
			ref.overhead += ref.opts.CostPrefetch
		default:
			ref.access(addr, size, fuzzIsStack(addr, sp), isRead)
		}
	}

	got, want := tool.Report(), ref.report()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mode %#x: page-span tool and per-byte oracle disagree\ntool   %+v\noracle %+v", data[0]&3, got, want)
	}
	if h.overhead != ref.overhead {
		t.Fatalf("mode %#x: tool charged %d, oracle %d", data[0]&3, h.overhead, ref.overhead)
	}
}

// fuzzSeed builds a random stream of nops events in mode, opening with a
// call to main so most of it is attributed.
func fuzzSeed(rng *rand.Rand, mode byte, nops int) []byte {
	data := []byte{mode, 4, 0, 0, 0}
	for i := 0; i < nops; i++ {
		data = append(data, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return data
}

// FuzzQUADMatchesMapRef is the shadow-walk equivalence test: any access
// stream — reads and writes of every width straddling and overlapping
// page boundaries, never-written bytes, forced-stack call/return
// traffic, kernel switches into library and anonymous routines — must
// give the page-span tool and the per-byte map oracle identical reports
// and identical overhead, in both stack modes and with or without
// ExcludeLibs.
func FuzzQUADMatchesMapRef(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for mode := byte(0); mode < 4; mode++ {
		for i := 0; i < 6; i++ {
			f.Add(fuzzSeed(rng, mode, 200))
		}
		// producer writes a 16-byte word over a page boundary, patcher
		// overwrites its middle, consumer reads it back across the
		// boundary (runs producer|patcher|producer over two pages).
		f.Add([]byte{mode,
			4, 1, 0, 0, 2, 44, 1, 4, 5, 0, 0, 0,
			4, 2, 0, 0, 2, 47, 1, 1, 3, 50, 1, 0, 5, 0, 0, 0,
			4, 3, 0, 0, 0, 44, 1, 4, 0, 40, 1, 5, 5, 0, 0, 0,
		})
	}
	f.Fuzz(runMapRefStream)
}
