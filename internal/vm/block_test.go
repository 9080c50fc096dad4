package vm_test

import (
	"testing"

	"tquad/internal/isa"
	"tquad/internal/obs"
	"tquad/internal/vm"
)

// asm encodes a program.
func asm(code []isa.Instr) []byte {
	var buf []byte
	for _, ins := range code {
		buf = ins.EncodeTo(buf)
	}
	return buf
}

// TestBlockCacheInvalidatedOnImageReload is the staleness regression
// test: loading a different image over the same addresses mid-process
// must drop every compiled block, or the second run would execute the
// first program's sealed blocks.
func TestBlockCacheInvalidatedOnImageReload(t *testing.T) {
	const base = 0x1000

	// Program A: return 7 by straight-line code.
	progA := asm([]isa.Instr{
		{Op: isa.OpLdi, Rd: 1, Imm: 7},
		{Op: isa.OpNop},
		{Op: isa.OpHalt, Rs1: 1},
	})
	// Program B: same length, returns 42.
	progB := asm([]isa.Instr{
		{Op: isa.OpLdi, Rd: 1, Imm: 42},
		{Op: isa.OpNop},
		{Op: isa.OpHalt, Rs1: 1},
	})

	m := vm.New()
	m.LoadImage(diffImage("a", base, progA))
	m.Reset(base)
	if err := m.Run(1000); err != nil {
		t.Fatalf("run A: %v", err)
	}
	if m.ExitCode != 7 {
		t.Fatalf("program A exited %d, want 7", m.ExitCode)
	}

	m.LoadImage(diffImage("b", base, progB))
	m.Reset(base)
	if err := m.Run(1000); err != nil {
		t.Fatalf("run B: %v", err)
	}
	if m.ExitCode != 42 {
		t.Fatalf("after reloading a different image, got exit %d, want 42: stale compiled blocks survived LoadImage", m.ExitCode)
	}
	if m.BlockStats.Invalidations == 0 {
		t.Fatalf("no block-cache invalidation recorded across LoadImage")
	}
}

// TestBlockCacheInvalidatedOnReset covers the raw-memory variant of the
// same staleness bug: tests and REPL-style drivers write code straight
// into memory and Reset, with no image load in between.  The per-PC code
// cache intentionally survives Reset (loaded images are immutable), so
// what Reset must guarantee is not freshness but equivalence: whatever
// the interpreter does with its surviving cache, the block engine must
// do identically, with no sealed block outliving the reset.
func TestBlockCacheInvalidatedOnReset(t *testing.T) {
	const base = 0x1000
	progA := asm([]isa.Instr{
		{Op: isa.OpLdi, Rd: 1, Imm: 1},
		{Op: isa.OpHalt, Rs1: 1},
	})
	progB := asm([]isa.Instr{
		{Op: isa.OpLdi, Rd: 1, Imm: 2},
		{Op: isa.OpHalt, Rs1: 1},
	})

	exits := func(blockEngine bool) (first, second int64) {
		m := vm.New()
		m.BlockEngine = blockEngine
		m.Mem.Write(base, progA)
		m.Reset(base)
		if err := m.Run(1000); err != nil {
			t.Fatalf("first run: %v", err)
		}
		first = m.ExitCode
		m.Mem.Write(base, progB)
		m.Reset(base)
		if err := m.Run(1000); err != nil {
			t.Fatalf("second run: %v", err)
		}
		second = m.ExitCode
		if blockEngine && m.BlockStats.Invalidations == 0 {
			t.Fatalf("Reset did not invalidate the block cache")
		}
		return first, second
	}

	ref1, ref2 := exits(false)
	got1, got2 := exits(true)
	if ref1 != got1 || ref2 != got2 {
		t.Fatalf("block engine diverges from interpreter across Reset: step=(%d,%d) block=(%d,%d)",
			ref1, ref2, got1, got2)
	}
}

// TestBlockStatsCounters checks the bookkeeping: blocks compile once,
// later entries hit the cache, and sealed blocks run the fast path.
func TestBlockStatsCounters(t *testing.T) {
	const base = 0x1000
	// A loop: 10 iterations of (addi, bne), then halt.
	prog := asm([]isa.Instr{
		{Op: isa.OpLdi, Rd: 2, Imm: 10},
		{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: 1},  // loop head
		{Op: isa.OpBne, Rs1: 1, Rs2: 2, Imm: -2}, // back to addi
		{Op: isa.OpHalt, Rs1: 1},
	})
	m := vm.New()
	m.LoadImage(diffImage("loop", base, prog))
	m.Reset(base)
	if err := m.Run(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	if m.ExitCode != 10 {
		t.Fatalf("exit %d, want 10", m.ExitCode)
	}
	s := m.BlockStats
	if s.Compiled == 0 || s.Sealed == 0 {
		t.Fatalf("no blocks compiled/sealed: %+v", s)
	}
	if s.Entries <= s.Compiled {
		t.Fatalf("expected block-cache hits (entries %d, compiled %d)", s.Entries, s.Compiled)
	}
	if s.FastRuns == 0 {
		t.Fatalf("loop iterations never took the sealed fast path: %+v", s)
	}

	reg := obs.NewRegistry()
	m.PublishBlockMetrics(reg)
	if v := reg.Counter("tquad_vm_blocks_compiled_total").Value(); v != s.Compiled {
		t.Fatalf("published blocks_compiled %d, want %d", v, s.Compiled)
	}
	if v := reg.Counter("tquad_vm_block_fast_runs_total").Value(); v != s.FastRuns {
		t.Fatalf("published fast_runs %d, want %d", v, s.FastRuns)
	}
}

// TestBlockEngineDisabledFallsBack pins the ablation contract: with
// BlockEngine off the machine uses the interpreter loop and compiles no
// blocks.
func TestBlockEngineDisabledFallsBack(t *testing.T) {
	const base = 0x1000
	m := vm.New()
	m.BlockEngine = false
	m.Mem.Write(base, asm([]isa.Instr{
		{Op: isa.OpLdi, Rd: 1, Imm: 5},
		{Op: isa.OpHalt, Rs1: 1},
	}))
	m.Reset(base)
	if err := m.Run(1000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if m.ExitCode != 5 {
		t.Fatalf("exit %d, want 5", m.ExitCode)
	}
	if m.BlockStats.Compiled != 0 || m.BlockStats.Entries != 0 {
		t.Fatalf("interpreter path compiled blocks: %+v", m.BlockStats)
	}
}
