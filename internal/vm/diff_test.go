package vm_test

// Differential equivalence tests: Machine.Step is the reference
// semantics, and the block engine must be observationally identical —
// same registers, PC, ICount, predicate, MemStats, halt/trap/fuel
// outcome, and the exact same per-instruction event stream (kinds,
// addresses, sizes, targets, stack pointers, predication outcomes, and
// the instruction count at each event).  The tests run randomly
// generated guest programs through both engines and compare everything.
// The programs are loaded as images, so both engines execute through
// the dense code and block tables as well as their map fallback.

import (
	"fmt"
	"math/rand"
	"testing"

	"tquad/internal/image"
	"tquad/internal/isa"
	"tquad/internal/vm"
)

// diffEvent is one observed probe event plus the machine state the
// analysis routine would have seen when it fired.
type diffEvent struct {
	ev     vm.Event
	icount uint64
}

// diffProbe instruments every instruction and records the full event
// stream, tagging each event with the live ICount (what a profiling
// tool's analysis routine reads through pin.Host).
type diffProbe struct {
	m        *vm.Machine
	compiled int
	events   []diffEvent
}

func (p *diffProbe) Compile(pc uint64, ins isa.Instr) vm.Handler {
	p.compiled++
	return func(ev *vm.Event) {
		p.events = append(p.events, diffEvent{ev: *ev, icount: p.m.ICount})
	}
}

// diffOutcome captures everything observable about one run.
type diffOutcome struct {
	regs     [isa.NumRegs]uint64
	pc       uint64
	pred     uint64
	icount   uint64
	memstats vm.MemStats
	halted   bool
	exitCode int64
	err      string
	events   []diffEvent
}

// The differential's guest layout.  Two images at distant bases give
// the dense code and block tables two ranges with a gap between them;
// stub code written with Mem.Write in that gap and at image A's
// CodeEnd runs only through the tables' map fallback; and a third
// image, loaded after Reset, lands either past B (a range the tables
// have no room for) or inside the gap (taking B's slots, so B falls
// back to the map).
const (
	baseA    = 0x1000
	baseB    = 0x80_0000
	gapPC    = 0x40_0000
	baseCFar = 0x100_0000
	baseCGap = 0x20_0000
)

// guest is one generated program in the differential's layout.
type guest struct {
	a, b, c   []byte // image code
	cBase     uint64
	gap, past []byte // raw code at gapPC and at image A's CodeEnd
}

// genGuest generates a guest whose calls land anywhere in the layout:
// inside each image, in the gap stub, at image A's CodeEnd and the slot
// after it, at image B's CodeEnd (zeroed memory: a decode trap), and
// on unaligned pcs inside image A.
func genGuest(rng *rand.Rand, n int) guest {
	nA, nB, nC, nS := n, 4+rng.Intn(30), 4+rng.Intn(16), 2+rng.Intn(8)
	cBase := uint64(baseCFar)
	if rng.Intn(2) == 0 {
		cBase = baseCGap
	}
	slot := func(base uint64, i int) uint64 { return base + uint64(i)*isa.InstrSize }
	// Each program is its n instructions plus a closing halt.
	endA, endB := slot(baseA, nA+1), slot(baseB, nB+1)
	call := func() uint64 {
		switch rng.Intn(10) {
		case 0, 1, 2:
			return slot(baseA, rng.Intn(nA+1))
		case 3, 4:
			return slot(baseB, rng.Intn(nB+1))
		case 5:
			return slot(cBase, rng.Intn(nC+1))
		case 6:
			return slot(gapPC, rng.Intn(nS+1))
		case 7:
			return slot(endA, rng.Intn(2))
		case 8:
			return endB
		}
		return slot(baseA, rng.Intn(nA+1)) + 4
	}
	return guest{
		a: genProgram(rng, nA, call), b: genProgram(rng, nB, call),
		c: genProgram(rng, nC, call), cBase: cBase,
		gap: genProgram(rng, nS, call), past: genProgram(rng, nS, call),
	}
}

// diffImage wraps code into a main image at base, with one routine
// over the code unless it is empty.
func diffImage(name string, base uint64, code []byte) *image.Image {
	var rts []image.Routine
	if len(code) > 0 {
		rts = []image.Routine{{Name: "main", Entry: base, End: base + uint64(len(code))}}
	}
	img, err := image.New(name, image.Main, base, code, 0, nil, 0, rts)
	if err != nil {
		panic(err)
	}
	return img
}

// load places images A and B and the raw stubs; image C is loaded
// separately, after a Reset.
func (g guest) load(m *vm.Machine) {
	m.LoadImage(diffImage("a", baseA, g.a))
	m.LoadImage(diffImage("b", baseB, g.b))
	m.Mem.Write(gapPC, g.gap)
	m.Mem.Write(baseA+uint64(len(g.a)), g.past)
}

// loadC loads image C.
func (g guest) loadC(m *vm.Machine) { m.LoadImage(diffImage("c", g.cBase, g.c)) }

// seedRegs fills r1..r15 from seed.  Small values near the data area
// keep load/store addresses — and therefore page allocations — bounded.
func seedRegs(m *vm.Machine, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 1; i < 16; i++ {
		m.Regs[i] = 0x2000 + uint64(rng.Intn(1<<16))
	}
}

// outcome captures what a run left observable.
func outcome(m *vm.Machine, p *diffProbe, err error) diffOutcome {
	out := diffOutcome{
		regs: m.Regs, pc: m.PC, pred: m.Pred, icount: m.ICount,
		memstats: m.MemStats, halted: m.Halted, exitCode: m.ExitCode,
		events: p.events,
	}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// runOne loads g, resets to image A's entry, loads image C and runs.
func runOne(g guest, seed int64, budget uint64, blockEngine bool) diffOutcome {
	m := vm.New()
	m.BlockEngine = blockEngine
	p := &diffProbe{m: m}
	m.SetProbe(p)
	g.load(m)
	m.Reset(baseA)
	g.loadC(m)
	seedRegs(m, seed)
	return outcome(m, p, m.Run(budget))
}

// genProgram emits a random but decodable instruction sequence drawing
// from the full ISA: ALU, FP, loads/stores (including the paired 16-byte
// forms and prefetches), predication, branches, calls (to call()'s
// targets) and returns.  Programs are not guaranteed to terminate or
// stay in bounds, and the fuel budget bounds loops; every outcome just
// has to be identical across engines.
func genProgram(rng *rand.Rand, n int, call func() uint64) []byte {
	alu := []isa.Op{
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpSar, isa.OpSlt, isa.OpSltu, isa.OpSeq,
		isa.OpDiv, isa.OpRem,
	}
	fp := []isa.Op{
		isa.OpFadd, isa.OpFsub, isa.OpFmul, isa.OpFdiv, isa.OpFneg,
		isa.OpFabs, isa.OpFsqrt, isa.OpFsin, isa.OpFcos, isa.OpFmin,
		isa.OpFmax, isa.OpFlt, isa.OpFle, isa.OpFeq, isa.OpI2f, isa.OpF2i,
	}
	loads := []isa.Op{isa.OpLd1, isa.OpLd2, isa.OpLd2s, isa.OpLd4, isa.OpLd4s, isa.OpLd8, isa.OpLd16, isa.OpPrefetch}
	stores := []isa.Op{isa.OpSt1, isa.OpSt2, isa.OpSt4, isa.OpSt8, isa.OpSt16}

	reg := func() uint8 { return uint8(rng.Intn(16)) }
	var code []isa.Instr
	for len(code) < n {
		ins := isa.Instr{Rd: reg(), Rs1: reg(), Rs2: reg()}
		// A sprinkle of predicated instructions on every path.
		ins.Pred = rng.Intn(6) == 0
		switch rng.Intn(16) {
		case 0, 1, 2, 3:
			ins.Op = alu[rng.Intn(len(alu))]
		case 4:
			ins.Op = fp[rng.Intn(len(fp))]
		case 5, 6:
			ins.Op = loads[rng.Intn(len(loads))]
			ins.Imm = int32(rng.Intn(256))
		case 7, 8:
			ins.Op = stores[rng.Intn(len(stores))]
			ins.Imm = int32(rng.Intn(256))
		case 9:
			ins.Op = isa.OpLdi
			ins.Imm = int32(rng.Uint32())
		case 10:
			ins.Op = []isa.Op{isa.OpAddi, isa.OpMuli, isa.OpAndi, isa.OpOri, isa.OpShli, isa.OpShri, isa.OpSlti}[rng.Intn(7)]
			ins.Imm = int32(rng.Intn(128)) - 32
		case 11:
			ins.Op = isa.OpSetp
		case 12:
			// Branches: short forward or backward hops so loops form but
			// mostly stay inside the program.
			ins.Op = []isa.Op{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu}[rng.Intn(5)]
			ins.Imm = int32(rng.Intn(9)) - 3
		case 13:
			ins.Op = isa.OpJmp
			ins.Imm = int32(rng.Intn(7)) - 2
		case 14:
			// The pushed return address makes a later Ret plausible.
			ins.Op = isa.OpCall
			ins.Imm = int32(uint32(call()))
		case 15:
			if rng.Intn(3) == 0 {
				ins.Op = isa.OpRet
			} else {
				ins.Op = isa.OpNop
			}
		}
		code = append(code, ins)
	}
	// A halt at the end catches straight-line fallthrough; branches past
	// it land on whatever the layout holds there (a stub, or zeroes that
	// trap on decode), identically on both engines.
	code = append(code, isa.Instr{Op: isa.OpHalt, Rs1: 1})
	var buf []byte
	for _, ins := range code {
		buf = ins.EncodeTo(buf)
	}
	return buf
}

func diffCompare(t *testing.T, trial int, ref, got diffOutcome) {
	t.Helper()
	fail := func(field string, want, have any) {
		t.Helper()
		t.Fatalf("trial %d: block engine diverges from stepper on %s: step=%v block=%v", trial, field, want, have)
	}
	if ref.err != got.err {
		fail("error", ref.err, got.err)
	}
	if ref.icount != got.icount {
		fail("ICount", ref.icount, got.icount)
	}
	if ref.pc != got.pc {
		fail("PC", fmt.Sprintf("%#x", ref.pc), fmt.Sprintf("%#x", got.pc))
	}
	if ref.pred != got.pred {
		fail("Pred", ref.pred, got.pred)
	}
	if ref.halted != got.halted {
		fail("Halted", ref.halted, got.halted)
	}
	if ref.exitCode != got.exitCode {
		fail("ExitCode", ref.exitCode, got.exitCode)
	}
	if ref.regs != got.regs {
		for i := range ref.regs {
			if ref.regs[i] != got.regs[i] {
				fail(fmt.Sprintf("r%d", i), ref.regs[i], got.regs[i])
			}
		}
	}
	if ref.memstats != got.memstats {
		fail("MemStats", ref.memstats, got.memstats)
	}
	if len(ref.events) != len(got.events) {
		fail("event count", len(ref.events), len(got.events))
	}
	for i := range ref.events {
		if ref.events[i] != got.events[i] {
			fail(fmt.Sprintf("event %d", i), ref.events[i], got.events[i])
		}
	}
}

// TestBlockEngineEquivalence runs random guest programs through the
// reference stepper and the block engine and requires identical
// observable behaviour, including under tight fuel budgets that cut
// blocks short.
func TestBlockEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		g := genGuest(rng, 4+rng.Intn(60))
		seed := rng.Int63()
		// Tight budgets exercise mid-block fuel exhaustion; generous
		// ones let programs halt or trap on their own.
		budget := []uint64{17, 100, 5000}[trial%3]
		ref := runOne(g, seed, budget, false)
		got := runOne(g, seed, budget, true)
		diffCompare(t, trial, ref, got)
	}
}

// TestBlockEngineEquivalenceRerun reruns the same program on one machine.
// Reset drops the compiled blocks but keeps the code cache, so a rerun
// builds its blocks from already-decoded, already-instrumented entries —
// the warm path must match the reference as exactly as the cold path.
// The first pass runs without image C, so its calls into C trap; the
// second loads C after its Reset, which flushes every table; the third
// only Resets, so it reruns the second's layout over the second's warm
// code cache.
func TestBlockEngineEquivalenceRerun(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		g := genGuest(rng, 4+rng.Intn(40))
		seed := rng.Int63()

		run3 := func(blockEngine bool) (out [3]diffOutcome) {
			m := vm.New()
			m.BlockEngine = blockEngine
			p := &diffProbe{m: m}
			m.SetProbe(p)
			g.load(m)
			for pass := range out {
				m.Reset(baseA)
				if pass == 1 {
					g.loadC(m)
				}
				seedRegs(m, seed)
				p.events = nil
				out[pass] = outcome(m, p, m.Run(3000))
			}
			return out
		}

		ref, got := run3(false), run3(true)
		for pass := range ref {
			diffCompare(t, trial, ref[pass], got[pass])
		}
	}
}

// FuzzBlockEngineEquivalence feeds arbitrary bytes to both engines as
// image A's code, in a layout whose other images and stubs are
// generated from the seed.  An image holds whole instructions only, so
// a trailing partial instruction replaces the stub at image A's
// CodeEnd and decodes there, followed by zeroes.  Most inputs trap on
// decode immediately; the ones that decode exercise the engines on
// instruction encodings the structured generator would never produce.
func FuzzBlockEngineEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		f.Add(genGuest(rng, 4+rng.Intn(24)).a, int64(i))
	}
	f.Add([]byte{}, int64(8)) // an empty image A
	// A nop falling through to a partial add at CodeEnd.
	f.Add(append(isa.Instr{Op: isa.OpNop}.EncodeTo(nil), byte(isa.OpAdd), 1, 2), int64(9))
	f.Fuzz(func(t *testing.T, code []byte, seed int64) {
		code = code[:min(len(code), 4096)]
		whole := len(code) &^ (isa.InstrSize - 1)
		g := genGuest(rand.New(rand.NewSource(seed)), 4+int(uint64(seed)%24))
		g.a = code[:whole]
		if whole < len(code) {
			g.past = code[whole:]
		}
		ref := runOne(g, seed, 2000, false)
		got := runOne(g, seed, 2000, true)
		diffCompare(t, 0, ref, got)
	})
}
