package memsim

// White-box tests: level mechanics (LRU order, write-back absorption),
// hierarchy bookkeeping via a fake pin.Host, the allocation-free hot
// path, and BenchmarkMemSim guarding the per-access overhead.  The
// machine-driven behaviour tests live in sim_test.go.

import (
	"testing"

	"tquad/internal/pin"
	"tquad/internal/vm"
)

// fakeHost is the minimal pin.Host: a settable instruction counter and
// an overhead accumulator.  It lets tests drive Tool.access directly
// with a synthetic address stream.
type fakeHost struct {
	ic       uint64
	overhead uint64
	instr    []pin.InstrumentFunc
}

func (h *fakeHost) InitSymbols()                                   {}
func (h *fakeHost) INSAddInstrumentFunction(fn pin.InstrumentFunc) { h.instr = append(h.instr, fn) }
func (h *fakeHost) RTNFindByAddress(pc uint64) (*pin.RTN, bool)    { return nil, false }
func (h *fakeHost) ICount() uint64                                 { return h.ic }
func (h *fakeHost) Time() uint64                                   { return h.ic + h.overhead }
func (h *fakeHost) CurrentPC() uint64                              { return 0 }
func (h *fakeHost) ChargeOverhead(n uint64)                        { h.overhead += n }
func (h *fakeHost) IsStackAddr(addr, sp uint64) bool               { return false }

// tiny returns a 2-set, 2-way, 64B-line single-level hierarchy.
func tiny(t testing.TB) (*Tool, *fakeHost) {
	t.Helper()
	h := &fakeHost{}
	tool, err := Attach(h, Options{Config: Config{
		Levels: []LevelConfig{{Name: "l1", Size: 2 * 2 * 64, Ways: 2, LineSize: 64}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return tool, h
}

// mctx builds a standalone analysis context for driving Tool.access
// directly: outside a VM the test owns the event behind the context.
func mctx(addr uint64, size int) *pin.Context {
	return &pin.Context{Event: &vm.Event{Addr: addr, Size: size}}
}

func TestLevelLRUEviction(t *testing.T) {
	tool, _ := tiny(t)
	rd := func(la uint64) { tool.access(mctx(la<<6, 8), false) }

	// Lines 0, 2, 4 map to set 0 (even line addresses, setMask=1).
	rd(0) // miss, fill
	rd(2) // miss, fill — set 0 now {2, 0}
	rd(0) // hit — set 0 now {0, 2}
	rd(4) // miss, evicts LRU line 2 — set 0 now {4, 0}
	rd(0) // must still hit
	rd(2) // must miss again (was evicted)

	lv := &tool.levels[0]
	if lv.Hits != 2 || lv.Misses != 4 {
		t.Errorf("hits=%d misses=%d, want 2/4", lv.Hits, lv.Misses)
	}
	if lv.Evictions != 2 {
		t.Errorf("evictions=%d, want 2 (lines 2 then 0 or 4)", lv.Evictions)
	}
	if tool.dram.Fills != 4 {
		t.Errorf("dram fills=%d, want 4", tool.dram.Fills)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	tool, _ := tiny(t)
	wr := func(la uint64) { tool.access(mctx(la<<6, 8), true) }
	rd := func(la uint64) { tool.access(mctx(la<<6, 8), false) }

	wr(0) // fill + dirty
	rd(2) // fill clean — set 0 {2, 0}
	rd(4) // evicts dirty line 0 -> DRAM write-back
	rd(6) // evicts clean line 2 -> no write-back
	if tool.dram.Writebacks != 1 {
		t.Errorf("dram writebacks=%d, want 1 (only the dirty victim)", tool.dram.Writebacks)
	}
	if tool.levels[0].Writebacks != 1 {
		t.Errorf("level writebacks=%d, want 1", tool.levels[0].Writebacks)
	}
	wantOff := uint64(4+1) * 64 // 4 fills + 1 write-back, 64B lines
	if got := tool.Snapshot().OffChipBytes(); got != wantOff {
		t.Errorf("off-chip bytes=%d, want %d", got, wantOff)
	}
}

func TestWritebackAbsorbedByOuterLevel(t *testing.T) {
	h := &fakeHost{}
	// L1: 1 set x 1 way; L2: 4 sets x 2 ways — L2 retains everything L1
	// evicts, so no dirty line reaches DRAM.
	tool, err := Attach(h, Options{Config: Config{
		Levels: []LevelConfig{
			{Name: "l1", Size: 64, Ways: 1, LineSize: 64},
			{Name: "l2", Size: 4 * 2 * 64, Ways: 2, LineSize: 64},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	wr := func(la uint64) { tool.access(mctx(la<<6, 8), true) }
	wr(0) // L1+L2 fill, L1 dirty
	wr(1) // evicts dirty line 0 from L1; L2 holds it -> absorbed
	if tool.dram.Writebacks != 0 {
		t.Errorf("dram writebacks=%d, want 0 (L2 absorbs)", tool.dram.Writebacks)
	}
	if tool.levels[0].Writebacks != 1 {
		t.Errorf("l1 writebacks=%d, want 1", tool.levels[0].Writebacks)
	}
	// Now force line 0 (dirty in L2) out of L2: lines 0,4,8 share L2 set 0.
	wr(4)
	wr(8)
	wr(12) // set 0 overflows -> dirty line 0 written back to DRAM
	if tool.dram.Writebacks == 0 {
		t.Error("dirty line evicted from LLC never reached DRAM")
	}
}

func TestStraddlingAccessTouchesTwoLines(t *testing.T) {
	tool, _ := tiny(t)
	// 8 bytes starting 4 bytes before a line boundary.
	tool.access(mctx(64-4, 8), false)
	lv := &tool.levels[0]
	if lv.Hits+lv.Misses != 2 {
		t.Errorf("line accesses=%d, want 2 for a straddling access", lv.Hits+lv.Misses)
	}
}

func TestPrefetchSkipped(t *testing.T) {
	tool, h := tiny(t)
	ctx := mctx(0, 8)
	ctx.Prefetch = true
	tool.access(ctx, false)
	if tool.PrefetchSkips != 1 || tool.Accesses != 0 {
		t.Errorf("prefetch not skipped: skips=%d accesses=%d", tool.PrefetchSkips, tool.Accesses)
	}
	if h.overhead != 0 {
		t.Errorf("prefetch charged overhead %d", h.overhead)
	}
	if tool.levels[0].Hits+tool.levels[0].Misses != 0 {
		t.Error("prefetch touched the cache")
	}
}

func TestOverheadCharged(t *testing.T) {
	tool, h := tiny(t)
	tool.access(mctx(0, 8), false)
	tool.access(mctx(0, 8), false)
	if want := 2 * tool.opts.CostAccess; h.overhead != want {
		t.Errorf("overhead=%d, want %d", h.overhead, want)
	}
	// Modelled DRAM time stays out of the host clock.
	if tool.MemCost == 0 {
		t.Error("no modelled DRAM cost accumulated")
	}
}

func TestRowBufferHits(t *testing.T) {
	tool, _ := tiny(t)
	// Consecutive lines share a 2048B row (32 lines/row): the second
	// fill must be a row hit; a line 64 rows away must be a row miss.
	tool.access(mctx(0, 8), false)
	tool.access(mctx(64, 8), false)
	if tool.dram.RowHits != 1 {
		t.Errorf("row hits=%d, want 1", tool.dram.RowHits)
	}
	tool.access(mctx(64*2048, 8), false)
	if tool.dram.RowMisses != 2 {
		t.Errorf("row misses=%d, want 2 (first touch + far row)", tool.dram.RowMisses)
	}
}

func TestSliceRotation(t *testing.T) {
	h := &fakeHost{}
	tool, err := Attach(h, Options{
		SliceInterval: 100,
		Config:        Config{Levels: []LevelConfig{{Name: "l1", Size: 4 * 2 * 64, Ways: 2, LineSize: 64}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tool.access(mctx(0, 8), false)
	h.ic = 250 // jump two slices
	tool.access(mctx(0, 8), false)
	prof := tool.Snapshot()
	k, ok := prof.Kernel(Outside)
	if !ok {
		t.Fatal("(outside) kernel missing")
	}
	if len(k.Points) != 2 || k.Points[0].Slice != 0 || k.Points[1].Slice != 2 {
		t.Fatalf("points=%+v, want slices 0 and 2", k.Points)
	}
	if k.Total.Hits[0] != 1 || k.Total.Misses[0] != 1 {
		t.Errorf("totals hits=%d misses=%d, want 1/1", k.Total.Hits[0], k.Total.Misses[0])
	}
}

// TestAccessAllocFree: the steady-state hot path — same kernel, same
// slice, warm series — must not allocate.
func TestAccessAllocFree(t *testing.T) {
	tool, _ := tiny(t)
	ctx := mctx(0, 8)
	tool.access(ctx, true) // warm: series + point exist
	var la uint64
	avg := testing.AllocsPerRun(1000, func() {
		la = (la + 1) & 63
		ctx.Addr = la << 6
		tool.access(ctx, la&1 == 0)
	})
	if avg != 0 {
		t.Errorf("steady-state access allocates %.2f objects/op, want 0", avg)
	}
}

// BenchmarkMemSim guards the per-access overhead of the full three-level
// hierarchy on a mixed hit/miss address stream.
func BenchmarkMemSim(b *testing.B) {
	h := &fakeHost{}
	cfg, err := ParseConfig("l1=32k/8/64,l2=256k/8/64,llc=8m/16/64")
	if err != nil {
		b.Fatal(err)
	}
	tool, err := Attach(h, Options{Config: cfg})
	if err != nil {
		b.Fatal(err)
	}
	ctx := mctx(0, 8)
	// A strided walk over 1 MiB: hits in LLC, misses in L1/L2 often
	// enough to exercise fill and write-back paths.
	var addr uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr = (addr + 192) & (1<<20 - 1)
		ctx.Addr = addr
		tool.access(ctx, i&3 == 0)
	}
}
