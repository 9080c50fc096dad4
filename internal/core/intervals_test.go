package core

// FuzzIntervalsMatchSolo: one attribution carrying k slice intervals
// must profile each interval exactly as a tool attached alone to its own
// host, for any event stream.

import (
	"math/rand"
	"reflect"
	"testing"

	"tquad/internal/image"
	"tquad/internal/isa"
	"tquad/internal/obs"
	"tquad/internal/pin"
	"tquad/internal/vm"
)

// The fuzz guest: routines at fuzzEntry(i), the last one unnamed (an
// anonymous sub_%x frame), two of them library code; a stack below
// fuzzStackBase.
const (
	fuzzGlobal    = 0x10000
	fuzzStackBase = 0x70000010
	fuzzMaxOps    = 1024
)

var fuzzRoutines = []struct {
	name string
	kind image.Kind
}{
	{"main", image.Main}, {"fft", image.Main}, {"mix", image.Main},
	{"memcpy", image.Library}, {"memset", image.Library}, {"", image.Main},
}

func fuzzEntry(i int) uint64 { return 0x1000 * uint64(i+1) }

// fakeHost is a pin.Host without a machine: the stream sets its clock
// and hands its events straight to the instrumented instructions.
type fakeHost struct {
	ic         uint64
	overhead   uint64
	instrument []pin.InstrumentFunc
	ins        map[isa.Op]*pin.INS
}

func (h *fakeHost) InitSymbols() {}
func (h *fakeHost) INSAddInstrumentFunction(fn pin.InstrumentFunc) {
	h.instrument = append(h.instrument, fn)
}
func (h *fakeHost) ICount() uint64                   { return h.ic }
func (h *fakeHost) Time() uint64                     { return h.ic + h.overhead }
func (h *fakeHost) CurrentPC() uint64                { return 0 }
func (h *fakeHost) ChargeOverhead(n uint64)          { h.overhead += n }
func (h *fakeHost) IsStackAddr(addr, sp uint64) bool { return addr >= sp && addr < fuzzStackBase }
func (h *fakeHost) RTNFindByAddress(pc uint64) (*pin.RTN, bool) {
	for i, r := range fuzzRoutines {
		if r.name != "" && pc == fuzzEntry(i) {
			return &pin.RTN{
				Routine: image.Routine{Name: r.name, Entry: pc, End: pc + 0x100},
				Image:   &image.Image{Kind: r.kind},
			}, true
		}
	}
	return nil, false
}

// dispatch delivers one event of an instruction with opcode op.
func (h *fakeHost) dispatch(op isa.Op, ev vm.Event) {
	if h.ins == nil {
		h.ins = make(map[isa.Op]*pin.INS)
	}
	in := h.ins[op]
	if in == nil {
		in = &pin.INS{Instr: isa.Instr{Op: op}}
		for _, fn := range h.instrument {
			fn(in)
		}
		h.ins[op] = in
	}
	in.Dispatch(&pin.Context{Event: &ev, Prefetch: in.IsPrefetch()})
}

// runIntervalStream decodes data into options, k slice intervals and an
// event stream, feeds the stream to one AttachIntervals group and to k
// solo tools on hosts of their own, and compares them.  data[0] picks
// the mode (bit 0 IncludeStack, bit 1 ExcludeLibs, bit 2
// TracePrefetches), data[1]%4+1 is k and data[2:2+k] the intervals
// (1-256 instructions).  Every following 4-byte group [op, a, b, c] is
// one event, after the clock advances by c%8, or by a*b when c%32 is 31:
//
//	op%8 0,1  read     op%8 2,3  write      op%8 4  call (target a)
//	op%8 5    return   op%8 6    prefetch   op%8 7  predicated-off read
//
// b%2 places a read or write on the stack or among the globals, and
// c%5 picks its size, 1 to 16 bytes.
func runIntervalStream(t *testing.T, data []byte) {
	if len(data) < 3 {
		return
	}
	opts := Options{IncludeStack: data[0]&1 != 0, ExcludeLibs: data[0]&2 != 0, TracePrefetches: data[0]&4 != 0}
	k := int(data[1]%4) + 1
	if len(data) < 2+k {
		return
	}
	ivs := make([]uint64, k)
	for i := range ivs {
		ivs[i] = uint64(data[2+i]) + 1
	}
	hosts := make([]*fakeHost, k+1) // hosts[k] carries the group
	solo := make([]*Tool, k)
	for i, iv := range ivs {
		hosts[i] = &fakeHost{}
		o := opts
		o.SliceInterval = iv
		solo[i] = Attach(hosts[i], o)
	}
	hosts[k] = &fakeHost{}
	group := AttachIntervals(hosts[k], opts, ivs)

	loads := []isa.Op{isa.OpLd1, isa.OpLd2, isa.OpLd4, isa.OpLd8, isa.OpLd16}
	stores := []isa.Op{isa.OpSt1, isa.OpSt2, isa.OpSt4, isa.OpSt8, isa.OpSt16}
	var ic uint64
	sp := uint64(fuzzStackBase - 8)
	ops := data[2+k:]
	for n := 0; len(ops) >= 4 && n < fuzzMaxOps; n, ops = n+1, ops[4:] {
		op, a, b, c := ops[0]%8, ops[1], ops[2], ops[3]
		if c%32 == 31 {
			ic += uint64(a) * uint64(b)
		} else {
			ic += uint64(c % 8)
		}
		var opc isa.Op
		var ev vm.Event
		switch op {
		case 4:
			opc = isa.OpCall
			ev = vm.Event{Kind: vm.EvCall, Addr: sp - 8, Size: 8, SP: sp, Executed: true,
				Target: fuzzEntry(int(a) % len(fuzzRoutines))}
		case 5:
			opc = isa.OpRet
			ev = vm.Event{Kind: vm.EvReturn, Addr: sp, Size: 8, SP: sp, Executed: true}
		default:
			addr := uint64(fuzzGlobal) + uint64(a)*8
			if b%2 == 0 {
				addr = sp + uint64(a%8)
			}
			size := 1 << (c % 5)
			isRead := op <= 1 || op >= 6
			opc, ev = loads[c%5], vm.Event{Kind: vm.EvRead, Addr: addr, Size: size, SP: sp, Executed: op != 7}
			switch {
			case op == 6:
				opc = isa.OpPrefetch
			case !isRead:
				opc, ev.Kind = stores[c%5], vm.EvWrite
			}
		}
		for _, h := range hosts {
			h.ic = ic
			h.dispatch(opc, ev)
		}
	}

	var snaps uint64
	for i, v := range group {
		want, got := solo[i], v
		if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
			t.Fatalf("mode %#x intervals %v: interval %d profile differs from its solo tool's\ngroup %+v\nsolo  %+v",
				data[0]&7, ivs, ivs[i], got.Snapshot(), want.Snapshot())
		}
		if got.Breakdown() != want.Breakdown() {
			t.Fatalf("intervals %v: interval %d breakdown %+v, solo %+v", ivs, ivs[i], got.Breakdown(), want.Breakdown())
		}
		if got.Breakdown().Total() != hosts[i].overhead {
			t.Fatalf("intervals %v: interval %d breakdown total %d, solo host charged %d",
				ivs, ivs[i], got.Breakdown().Total(), hosts[i].overhead)
		}
		gr, wr := obs.NewRegistry(), obs.NewRegistry()
		got.PublishMetrics(gr)
		want.PublishMetrics(wr)
		if !reflect.DeepEqual(gr.Snapshot(), wr.Snapshot()) {
			t.Fatalf("intervals %v: interval %d metrics differ from its solo tool's", ivs, ivs[i])
		}
		snaps += got.Snapshots
	}
	// The shared host is charged each path cost once and every
	// interval's snapshots.
	b := group[0].Breakdown()
	if want := b.TraceCost + b.SkipCost + b.PrefetchCost + snaps*group[0].opts.CostSnapshot; hosts[k].overhead != want {
		t.Fatalf("intervals %v: group host charged %d, want %d", ivs, hosts[k].overhead, want)
	}
}

// fuzzSeed builds a random stream of nops events for k intervals,
// opening with a call to main so most of it is attributed.
func fuzzSeed(rng *rand.Rand, mode byte, ivs []byte, nops int) []byte {
	data := append([]byte{mode, byte(len(ivs) - 1)}, ivs...)
	data = append(data, 4, 0, 0, 0)
	for i := 0; i < nops; i++ {
		data = append(data, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return data
}

// FuzzIntervalsMatchSolo is the fusion equivalence test: for any event
// stream — kernel switches into library and anonymous routines, stack
// and global traffic, prefetches, predicated-off accesses, and clock
// jumps across many slices — every interval of an AttachIntervals group
// must report the profile, overhead breakdown and metrics of a tool
// attached alone, and that breakdown must total the solo host's clock.
func FuzzIntervalsMatchSolo(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for mode := byte(0); mode < 8; mode++ {
		f.Add(fuzzSeed(rng, mode, []byte{0}, 300))
		f.Add(fuzzSeed(rng, mode, []byte{9, 63, 2}, 300))
		f.Add(fuzzSeed(rng, mode, []byte{255, 15, 15, 99}, 300))
	}
	f.Fuzz(runIntervalStream)
}
