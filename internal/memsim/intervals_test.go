package memsim

// FuzzIntervalsMatchSolo: one simulation carrying k slice intervals must
// account each interval exactly as a simulator attached alone to its own
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

// fuzzRoutines are the call targets, at 0x1000*(i+1): three main-image
// kernels, a library routine (attributed to Outside under ExcludeLibs)
// and an address with no symbol.
var fuzzRoutines = []struct {
	name string
	kind image.Kind
}{
	{"main", image.Main}, {"fft", image.Main}, {"mix", image.Main},
	{"memcpy", image.Library}, {"", image.Main},
}

// streamHost is fakeHost with the fuzz routines as its symbols and the
// instrumented instructions of one stream.
type streamHost struct {
	fakeHost
	ins map[isa.Op]*pin.INS
}

func (h *streamHost) RTNFindByAddress(pc uint64) (*pin.RTN, bool) {
	for i, r := range fuzzRoutines {
		if e := 0x1000 * uint64(i+1); r.name != "" && pc == e {
			return &pin.RTN{
				Routine: image.Routine{Name: r.name, Entry: e, End: e + 0x100},
				Image:   &image.Image{Kind: r.kind},
			}, true
		}
	}
	return nil, false
}

// dispatch delivers one event of an instruction with opcode op.
func (h *streamHost) dispatch(op isa.Op, ev vm.Event) {
	if h.ins == nil {
		h.ins = make(map[isa.Op]*pin.INS)
	}
	in := h.ins[op]
	if in == nil {
		in = &pin.INS{Instr: isa.Instr{Op: op}}
		for _, fn := range h.instr {
			fn(in)
		}
		h.ins[op] = in
	}
	in.Dispatch(&pin.Context{Event: &ev, Prefetch: in.IsPrefetch()})
}

// fuzzConfigs are the geometries data[0]>>1 picks from: one tiny level,
// two levels, and three levels of different associativity.
var fuzzConfigs = []Config{
	{Levels: []LevelConfig{{Name: "l1", Size: 2 * 2 * 64, Ways: 2, LineSize: 64}}},
	{Levels: []LevelConfig{
		{Name: "l1", Size: 4 * 1 * 32, Ways: 1, LineSize: 32},
		{Name: "l2", Size: 8 * 4 * 32, Ways: 4, LineSize: 32},
	}, DRAM: DRAMConfig{RowSize: 256, FillCost: 100, WritebackCost: 90, RowHitCost: 30, RowMissCost: 120}},
	{Levels: []LevelConfig{
		{Name: "l1", Size: 2 * 2 * 16, Ways: 2, LineSize: 16},
		{Name: "l2", Size: 4 * 2 * 16, Ways: 2, LineSize: 16},
		{Name: "llc", Size: 8 * 8 * 16, Ways: 8, LineSize: 16},
	}, DRAM: DRAMConfig{RowSize: 128, FillCost: 100, WritebackCost: 100, RowHitCost: 30, RowMissCost: 120}},
}

// runIntervalStream decodes data into a geometry, k slice intervals and
// an event stream, feeds the stream to one AttachIntervals group and to
// k solo simulators on hosts of their own, and compares them.  data[0]
// bit 0 is ExcludeLibs and data[0]>>1 picks the geometry, data[1]%4+1
// is k and data[2:2+k] the intervals (1-256 instructions).  Every
// following 4-byte group [op, a, b, c] is one event, after the clock
// advances by c%8, or by a*b when c%32 is 31:
//
//	op%8 0,1  read     op%8 2,3  write      op%8 4  call (target a)
//	op%8 5    return   op%8 6    prefetch   op%8 7  predicated-off read
//
// A read or write touches a*8+b%16 in a 2 KiB window, c%5 picks its
// size (1 to 16 bytes, so it may straddle two lines).
func runIntervalStream(t *testing.T, data []byte) {
	if len(data) < 3 {
		return
	}
	opts := Options{ExcludeLibs: data[0]&1 != 0, Config: fuzzConfigs[int(data[0]>>1)%len(fuzzConfigs)]}
	k := int(data[1]%4) + 1
	if len(data) < 2+k {
		return
	}
	ivs := make([]uint64, k)
	for i := range ivs {
		ivs[i] = uint64(data[2+i]) + 1
	}
	hosts := make([]*streamHost, k+1) // hosts[k] carries the group
	solo := make([]*Tool, k)
	for i, iv := range ivs {
		hosts[i] = &streamHost{}
		o := opts
		o.SliceInterval = iv
		var err error
		if solo[i], err = Attach(hosts[i], o); err != nil {
			t.Fatal(err)
		}
	}
	hosts[k] = &streamHost{}
	group, err := AttachIntervals(hosts[k], opts, ivs)
	if err != nil {
		t.Fatal(err)
	}

	loads := []isa.Op{isa.OpLd1, isa.OpLd2, isa.OpLd4, isa.OpLd8, isa.OpLd16}
	stores := []isa.Op{isa.OpSt1, isa.OpSt2, isa.OpSt4, isa.OpSt8, isa.OpSt16}
	var ic uint64
	ops := data[2+k:]
	for n := 0; len(ops) >= 4 && n < 1024; n, ops = n+1, ops[4:] {
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
			ev = vm.Event{Kind: vm.EvCall, Target: 0x1000 * uint64(int(a)%len(fuzzRoutines)+1), Executed: true}
		case 5:
			opc = isa.OpRet
			ev = vm.Event{Kind: vm.EvReturn, Executed: true}
		default:
			size := 1 << (c % 5)
			opc = loads[c%5]
			ev = vm.Event{Kind: vm.EvRead, Addr: uint64(a)*8 + uint64(b%16), Size: size, Executed: op != 7}
			switch {
			case op == 6:
				opc = isa.OpPrefetch
			case op == 2 || op == 3:
				opc, ev.Kind = stores[c%5], vm.EvWrite
			}
		}
		for _, h := range hosts {
			h.ic = ic
			h.dispatch(opc, ev)
		}
	}

	for i, v := range group {
		got, want := v.Snapshot(), solo[i].Snapshot()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("config %s intervals %v: interval %d profile differs from its solo simulator's\ngroup %+v\nsolo  %+v",
				opts.Config.Key(), ivs, ivs[i], got, want)
		}
		if v.Overhead() != hosts[i].overhead {
			t.Fatalf("intervals %v: interval %d overhead %d, solo host charged %d", ivs, ivs[i], v.Overhead(), hosts[i].overhead)
		}
		gr, wr := obs.NewRegistry(), obs.NewRegistry()
		v.PublishMetrics(gr)
		solo[i].PublishMetrics(wr)
		if !reflect.DeepEqual(gr.Snapshot(), wr.Snapshot()) {
			t.Fatalf("intervals %v: interval %d metrics differ from its solo simulator's", ivs, ivs[i])
		}
	}
	// The shared host is charged once per access, as a solo host is.
	if hosts[k].overhead != hosts[0].overhead {
		t.Fatalf("intervals %v: group host charged %d, a solo host %d", ivs, hosts[k].overhead, hosts[0].overhead)
	}
}

// fuzzSeed builds a random stream of nops events for k intervals,
// opening with a call to main.
func fuzzSeed(rng *rand.Rand, mode byte, ivs []byte, nops int) []byte {
	data := append([]byte{mode, byte(len(ivs) - 1)}, ivs...)
	data = append(data, 4, 0, 0, 0)
	for i := 0; i < nops; i++ {
		data = append(data, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return data
}

// FuzzIntervalsMatchSolo is the fusion equivalence test for the
// simulator: for any event stream — kernel switches, library code,
// line-straddling accesses, prefetches, predicated-off accesses and
// clock jumps across many slices — every interval of an AttachIntervals
// group must report the profile, overhead and metrics of a simulator
// attached alone, on every geometry.
func FuzzIntervalsMatchSolo(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for mode := byte(0); mode < 6; mode++ {
		f.Add(fuzzSeed(rng, mode, []byte{0}, 300))
		f.Add(fuzzSeed(rng, mode, []byte{9, 63, 2}, 300))
		f.Add(fuzzSeed(rng, mode, []byte{255, 15, 15, 99}, 300))
	}
	f.Fuzz(runIntervalStream)
}
