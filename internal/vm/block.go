// The pre-decoded basic-block execution engine.  Machine.Step decodes and
// dispatches one instruction at a time through the per-PC code cache; the
// block engine discovers dynamic basic blocks at first execution, runs
// each block once through Step (so instrumentation compiles in exactly
// the order the plain interpreter would produce — this is what keeps
// recorded event traces byte-identical), and then seals the block into a
// flat pre-decoded form executed by a tight loop with immediates,
// branch targets and access sizes precomputed and the supervision checks
// (context, watchdog, fuel) hoisted to block boundaries.
//
// Step remains the reference implementation: the block engine must be
// observationally equivalent — same registers, ICount, MemStats, traps,
// halt PC and per-instruction event stream — which the differential test
// in diff_test.go checks over random guest programs.
package vm

import (
	"context"
	"math"

	"tquad/internal/isa"
	"tquad/internal/obs"
)

// maxBlockLen caps the number of instructions decoded into one block; a
// straight-line run longer than this is split into consecutive blocks
// (the split is invisible: a block ending without a control transfer
// falls through to the next block with no supervision check, exactly
// like straight-line flow in the interpreter loop).
const maxBlockLen = 256

// BlockStats counts the block engine's activity: compile work, cache
// effectiveness and how much execution took the sealed fast path.
type BlockStats struct {
	Compiled      uint64 // blocks decoded into the block cache
	Sealed        uint64 // blocks promoted to the pre-decoded fast path
	Entries       uint64 // block executions started (cache hits = Entries - Compiled)
	FastRuns      uint64 // executions through the sealed fast path
	StepRuns      uint64 // executions through the Step-based warming path
	Invalidations uint64 // whole-cache flushes (LoadImage/Reset/SetProbe)
}

// PublishBlockMetrics exports the block-engine counters into the
// registry; a nil registry is a no-op.
func (m *Machine) PublishBlockMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Counter("tquad_vm_blocks_compiled_total").Add(m.BlockStats.Compiled)
	r.Counter("tquad_vm_blocks_sealed_total").Add(m.BlockStats.Sealed)
	r.Counter("tquad_vm_block_entries_total").Add(m.BlockStats.Entries)
	r.Counter("tquad_vm_block_fast_runs_total").Add(m.BlockStats.FastRuns)
	r.Counter("tquad_vm_block_step_runs_total").Add(m.BlockStats.StepRuns)
	r.Counter("tquad_vm_block_invalidations_total").Add(m.BlockStats.Invalidations)
}

// BlockProbe is an optional extension of Probe implemented by
// instrumentation engines that support block-level folding.  When the
// machine seals a block it offers the probe the block's instructions and
// their per-instruction handlers (as compiled by Probe.Compile, in block
// order); the probe may return
//
//   - slots: replacement per-slot handlers, parallel to ins (nil entries
//     need no dynamic dispatch).  Replacement handlers typically skip
//     per-call bookkeeping that the probe folds into the block summary;
//   - nStatic: per-slot counts of the analysis calls that fire whenever
//     the slot's event fires, regardless of the predicate (the statically
//     known part of the dispatch);
//   - retire: invoked once per block execution with the number of folded
//     calls whose events actually fired — the whole-block sum on a full
//     execution, a prefix sum when a trap or the instruction budget cut
//     the block short.
//
// Returning nil slots declines folding: the machine then dispatches the
// original per-instruction handlers, which do their own bookkeeping.
type BlockProbe interface {
	Probe
	CompileBlock(start uint64, ins []isa.Instr, handlers []Handler) (slots []Handler, nStatic []uint32, retire func(folded uint64))
}

// bop is one pre-decoded instruction slot of a sealed block.
type bop struct {
	handler Handler
	ins     isa.Instr
	pc      uint64
	imm     uint64 // precomputed immediate: sign/zero-extended constant, absolute branch/call target, shift count
	nstat   uint32 // folded analysis calls fired whenever this slot's event fires
	op      isa.Op
	rd      uint8
	rs1     uint8
	rs2     uint8
	size    uint8 // access size for memory ops
	cls     uint8 // MemStats size-class index
	pred    bool
	kind    EventKind // event kind (also used for predicated-false events)
	ev      Event     // pre-filled event template: Kind/PC/Ins/Size/Executed=true
	evSkip  *Event    // predicated-false template (Size=0, Executed=false); nil unless pred
}

// block is one dynamic basic block: the instructions from its entry PC up
// to and including the first control transfer (or the maxBlockLen cap).
type block struct {
	start uint64
	end   uint64 // fall-through PC: start + len(ops)*InstrSize
	ops   []bop
	warm  bool // handlers harvested; fast path eligible

	// Folding summary (nil/0 when the probe is not a BlockProbe or
	// declined): see BlockProbe.
	retire      func(folded uint64)
	totalStatic uint64
}

// endsBlock reports whether op terminates basic-block discovery: every
// control transfer, plus syscalls (whose handlers may touch machine
// state) and halt.  This mirrors the control set internal/cfg uses for
// static CFG construction.
func endsBlock(op isa.Op) bool {
	switch op {
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu,
		isa.OpJmp, isa.OpCall, isa.OpCallr, isa.OpRet, isa.OpHalt, isa.OpSyscall:
		return true
	}
	return false
}

// flushBlocks drops every compiled block.  Called whenever the code cache
// is flushed (LoadImage, SetProbe) and on Reset: both can change the
// bytes or the instrumentation behind already-compiled PCs.  The dense
// table is cleared in place unless LoadImage resized the code cache.
func (m *Machine) flushBlocks() {
	if len(m.blockArr) > 0 || len(m.blockMap) > 0 {
		m.BlockStats.Invalidations++
	}
	m.blockMap = nil
	if n := m.codeIdx.Len(); len(m.blockArr) == n {
		clear(m.blockArr)
	} else {
		m.blockArr = make([]*block, n)
	}
}

// blockEntry returns the compiled block starting at pc, compiling it on
// first touch.  A nil return means the head instruction does not decode;
// the caller falls back to Step for the exact trap.
func (m *Machine) blockEntry(pc uint64) *block {
	var slot **block
	if i, ok := m.codeIdx.Slot(pc); ok {
		slot = &m.blockArr[i]
		if b := *slot; b != nil {
			return b
		}
	} else if b := m.blockMap[pc]; b != nil {
		return b
	}
	b := m.buildBlock(pc)
	if b == nil {
		return nil
	}
	m.BlockStats.Compiled++
	if slot != nil {
		*slot = b
	} else {
		if m.blockMap == nil {
			m.blockMap = make(map[uint64]*block)
		}
		m.blockMap[pc] = b
	}
	return b
}

// buildBlock decodes the dynamic basic block starting at pc.  Decoding
// stops after the first control transfer, at the length cap, or just
// before an undecodable instruction; a block is only nil when its very
// first instruction fails to decode.
func (m *Machine) buildBlock(pc uint64) *block {
	b := &block{start: pc}
	var buf [isa.InstrSize]byte
	for len(b.ops) < maxBlockLen {
		at := pc + uint64(len(b.ops))*isa.InstrSize
		m.Mem.Read(at, buf[:])
		ins, err := isa.Decode(buf[:])
		if err != nil {
			break
		}
		b.ops = append(b.ops, compileOp(at, ins))
		if endsBlock(ins.Op) {
			break
		}
	}
	if len(b.ops) == 0 {
		return nil
	}
	b.end = pc + uint64(len(b.ops))*isa.InstrSize
	return b
}

// compileOp pre-decodes one instruction into its flat executable form.
func compileOp(pc uint64, ins isa.Instr) bop {
	op := bop{
		ins:  ins,
		pc:   pc,
		op:   ins.Op,
		rd:   ins.Rd,
		rs1:  ins.Rs1,
		rs2:  ins.Rs2,
		pred: ins.Pred,
		kind: eventKind(ins),
	}
	switch ins.Op {
	case isa.OpLdiu, isa.OpLuhi, isa.OpCall:
		op.imm = uint64(uint32(ins.Imm))
		if ins.Op == isa.OpLuhi {
			op.imm <<= 32
		}
	case isa.OpShli, isa.OpShri:
		op.imm = uint64(uint32(ins.Imm) & 63)
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpJmp:
		op.imm = branchTarget(pc, ins.Imm)
	default:
		op.imm = uint64(int64(ins.Imm))
	}
	if ins.IsMemRead() || ins.IsMemWrite() {
		op.size = uint8(ins.AccessSize())
		op.cls = uint8(sizeClass(ins.AccessSize()))
	}
	// The event template carries everything known at compile time; the
	// execution loop dispatches the template in place, patching only the
	// dynamic fields (address, SP, target) per execution instead of
	// reassembling — or even copying — the whole event per dispatch.
	// That is sound because handlers neither retain nor mutate the event
	// pointer (the same contract the interpreter's scratch event relies
	// on).  Predicated instructions get a second template for the
	// not-executed outcome, so the executed template's Size/Executed
	// never need rewriting.
	op.ev = Event{Kind: op.kind, PC: pc, Ins: ins, Size: int(op.size), Executed: true}
	switch ins.Op {
	case isa.OpCall, isa.OpCallr, isa.OpRet:
		op.ev.Size = isa.WordSize
	}
	if ins.Pred {
		op.evSkip = &Event{Kind: op.kind, PC: pc, Ins: ins}
	}
	return op
}

// seal harvests the per-instruction handlers compiled during the warming
// execution and, when the probe folds blocks, installs the folded slot
// handlers and the retire hook.  Must only be called after a complete
// execution of the block (every PC is then present in the code cache).
// Each slot is re-decoded from its code-cache entry rather than trusting
// the discovery pass: the cache is what Step executes, so a sealed block
// can never disagree with the reference interpreter, even when guest
// memory was rewritten under a warm cache.
func (m *Machine) seal(b *block) {
	for i := range b.ops {
		e, err := m.entry(b.ops[i].pc)
		if err != nil {
			return // cannot happen after a full execution; stay cold
		}
		b.ops[i] = compileOp(b.ops[i].pc, e.ins)
		b.ops[i].handler = e.handler
	}
	if bp, ok := m.probe.(BlockProbe); ok {
		ins := make([]isa.Instr, len(b.ops))
		handlers := make([]Handler, len(b.ops))
		for i := range b.ops {
			ins[i] = b.ops[i].ins
			handlers[i] = b.ops[i].handler
		}
		if slots, nstat, retire := bp.CompileBlock(b.start, ins, handlers); slots != nil {
			for i := range b.ops {
				b.ops[i].handler = slots[i]
				b.ops[i].nstat = nstat[i]
				b.totalStatic += uint64(nstat[i])
			}
			b.retire = retire
		}
	}
	b.warm = true
	m.BlockStats.Sealed++
}

// retirePrefix reports the folded analysis calls of the first n slots —
// the compensation path when a trap or the fuel budget stops a sealed
// block before its end.
func (b *block) retirePrefix(n int) {
	if b.retire == nil {
		return
	}
	var folded uint64
	for i := 0; i < n; i++ {
		folded += uint64(b.ops[i].nstat)
	}
	b.retire(folded)
}

// warmBlock executes a cold block through Step — compiling each
// instruction's instrumentation in exactly the interpreter's order — and
// seals it after its first complete execution.  taken reports whether the
// block exited through a taken control transfer (the supervision points).
func (m *Machine) warmBlock(b *block, maxInstr uint64) (taken bool, err error) {
	m.BlockStats.StepRuns++
	n := len(b.ops)
	if maxInstr != 0 {
		if rem := maxInstr - m.ICount; uint64(n) > rem {
			n = int(rem)
		}
	}
	for i := 0; i < n; i++ {
		at := b.start + uint64(i)*isa.InstrSize
		if err := m.Step(); err != nil {
			return false, err
		}
		if m.Halted {
			return false, nil
		}
		if m.PC != at+isa.InstrSize {
			// Control transferred: the block's last instruction, or — if
			// the cached decode disagrees with the bytes the block was
			// discovered from (guest memory rewritten under a warm
			// cache) — somewhere mid-block.  Either way this is a block
			// boundary in the interpreter's eyes; seal only on the
			// complete, agreed-upon shape.
			if i == n-1 && n == len(b.ops) {
				m.seal(b)
			}
			return true, nil
		}
	}
	if n < len(b.ops) {
		return false, nil // budget ran out mid-block; stays cold
	}
	m.seal(b)
	return false, nil
}

// runBlocks is the block-engine run loop behind RunContext: supervision
// (context poll, watchdog) fires only after taken control transfers and
// the fuel budget is enforced exactly, both matching the interpreter
// loop's observable behaviour.
func (m *Machine) runBlocks(ctx context.Context, maxInstr uint64) error {
	done := ctx.Done()
	supervised := done != nil || m.Watchdog != nil
	if supervised {
		if err := ctx.Err(); err != nil {
			return &CancelError{PC: m.PC, ICount: m.ICount, Cause: err}
		}
	}
	for !m.Halted {
		if maxInstr != 0 && m.ICount >= maxInstr {
			return ErrFuel
		}
		b := m.blockEntry(m.PC)
		if b == nil {
			// The head instruction does not decode: Step raises the
			// exact decode trap the interpreter would.
			if err := m.Step(); err != nil {
				return err
			}
			continue
		}
		m.BlockStats.Entries++
		var taken bool
		var err error
		if b.warm {
			taken, err = m.execBlock(b, maxInstr)
		} else {
			taken, err = m.warmBlock(b, maxInstr)
		}
		if err != nil {
			return err
		}
		if !supervised || m.Halted || !taken {
			continue
		}
		if done != nil {
			select {
			case <-done:
				return &CancelError{PC: m.PC, ICount: m.ICount, Cause: ctx.Err()}
			default:
			}
		}
		if m.Watchdog != nil {
			if err := m.Watchdog(m); err != nil {
				return err
			}
		}
	}
	return nil
}

// execBlock runs one sealed block through the pre-decoded fast loop.
// Every observable effect — event order and contents, ICount at event
// time, MemStats, trap PCs, the halt PC — matches Step exactly.
func (m *Machine) execBlock(b *block, maxInstr uint64) (taken bool, err error) {
	m.BlockStats.FastRuns++
	ops := b.ops
	n := len(ops)
	capped := false
	if maxInstr != 0 {
		if rem := maxInstr - m.ICount; uint64(n) > rem {
			n = int(rem)
			capped = true
		}
	}
	regs := &m.Regs
	for i := 0; i < n; i++ {
		op := &ops[i]
		m.ICount++

		if op.pred && m.Pred == 0 {
			if op.handler != nil {
				op.evSkip.SP = regs[isa.RegSP]
				op.handler(op.evSkip)
			}
			continue
		}

		switch op.op {
		case isa.OpNop:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}

		case isa.OpHalt:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			m.Halted = true
			m.ExitCode = int64(regs[op.rs1])
			m.PC = op.pc
			b.retirePrefix(i + 1)
			return false, nil

		case isa.OpLdi, isa.OpLdiu:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = op.imm
			}
		case isa.OpLuhi:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = regs[op.rd]&0xffffffff | op.imm
			}
		case isa.OpMov:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = regs[op.rs1]
			}

		case isa.OpAdd:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = regs[op.rs1] + regs[op.rs2]
			}
		case isa.OpSub:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = regs[op.rs1] - regs[op.rs2]
			}
		case isa.OpMul:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = regs[op.rs1] * regs[op.rs2]
			}
		case isa.OpDiv:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			d := int64(regs[op.rs2])
			if d == 0 {
				m.PC = op.pc
				b.retirePrefix(i + 1)
				return false, m.trap(op.pc, "integer division by zero")
			}
			if op.rd != 0 {
				regs[op.rd] = uint64(int64(regs[op.rs1]) / d)
			}
		case isa.OpRem:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			d := int64(regs[op.rs2])
			if d == 0 {
				m.PC = op.pc
				b.retirePrefix(i + 1)
				return false, m.trap(op.pc, "integer remainder by zero")
			}
			if op.rd != 0 {
				regs[op.rd] = uint64(int64(regs[op.rs1]) % d)
			}
		case isa.OpAnd:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = regs[op.rs1] & regs[op.rs2]
			}
		case isa.OpOr:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = regs[op.rs1] | regs[op.rs2]
			}
		case isa.OpXor:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = regs[op.rs1] ^ regs[op.rs2]
			}
		case isa.OpShl:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = regs[op.rs1] << (regs[op.rs2] & 63)
			}
		case isa.OpShr:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = regs[op.rs1] >> (regs[op.rs2] & 63)
			}
		case isa.OpSar:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = uint64(int64(regs[op.rs1]) >> (regs[op.rs2] & 63))
			}

		case isa.OpAddi:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = regs[op.rs1] + op.imm
			}
		case isa.OpMuli:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = regs[op.rs1] * op.imm
			}
		case isa.OpAndi:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = regs[op.rs1] & op.imm
			}
		case isa.OpOri:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = regs[op.rs1] | op.imm
			}
		case isa.OpShli:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = regs[op.rs1] << op.imm
			}
		case isa.OpShri:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = regs[op.rs1] >> op.imm
			}

		case isa.OpSlt:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = b2u(int64(regs[op.rs1]) < int64(regs[op.rs2]))
			}
		case isa.OpSltu:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = b2u(regs[op.rs1] < regs[op.rs2])
			}
		case isa.OpSeq:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = b2u(regs[op.rs1] == regs[op.rs2])
			}
		case isa.OpSlti:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = b2u(int64(regs[op.rs1]) < int64(op.imm))
			}

		case isa.OpFadd, isa.OpFsub, isa.OpFmul, isa.OpFdiv, isa.OpFneg,
			isa.OpFabs, isa.OpFsqrt, isa.OpFsin, isa.OpFcos, isa.OpFmin,
			isa.OpFmax, isa.OpFlt, isa.OpFle, isa.OpFeq, isa.OpI2f, isa.OpF2i:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if op.rd != 0 {
				regs[op.rd] = fpOp(op.op, regs[op.rs1], regs[op.rs2])
			}

		case isa.OpLd1, isa.OpLd2, isa.OpLd4, isa.OpLd8:
			addr := regs[op.rs1] + op.imm
			if op.handler != nil {
				op.ev.Addr = addr
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			m.MemStats.ReadOps[op.cls]++
			v := m.Mem.LoadLE(addr, int(op.size))
			if op.rd != 0 {
				regs[op.rd] = v
			}
		case isa.OpLd2s:
			addr := regs[op.rs1] + op.imm
			if op.handler != nil {
				op.ev.Addr = addr
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			m.MemStats.ReadOps[1]++
			v := uint64(int64(int16(m.Mem.LoadLE(addr, 2))))
			if op.rd != 0 {
				regs[op.rd] = v
			}
		case isa.OpLd4s:
			addr := regs[op.rs1] + op.imm
			if op.handler != nil {
				op.ev.Addr = addr
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			m.MemStats.ReadOps[2]++
			v := uint64(int64(int32(m.Mem.LoadLE(addr, 4))))
			if op.rd != 0 {
				regs[op.rd] = v
			}
		case isa.OpPrefetch:
			addr := regs[op.rs1] + op.imm
			if op.handler != nil {
				op.ev.Addr = addr
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			m.MemStats.Prefetches++

		case isa.OpSt1, isa.OpSt2, isa.OpSt4, isa.OpSt8:
			addr := regs[op.rs1] + op.imm
			if op.handler != nil {
				op.ev.Addr = addr
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			m.MemStats.WriteOps[op.cls]++
			m.Mem.StoreLE(addr, regs[op.rs2], int(op.size))

		case isa.OpLd16:
			addr := regs[op.rs1] + op.imm
			if op.handler != nil {
				op.ev.Addr = addr
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			m.MemStats.ReadOps[4]++
			lo, hi := m.Mem.Load64(addr), m.Mem.Load64(addr+8)
			if op.rd != 0 {
				regs[op.rd] = lo
			}
			regs[op.rd+1] = hi // rd+1 >= 1, never the zero register

		case isa.OpSt16:
			addr := regs[op.rs1] + op.imm
			if op.handler != nil {
				op.ev.Addr = addr
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			m.MemStats.WriteOps[4]++
			m.Mem.Store64(addr, regs[op.rs2])
			m.Mem.Store64(addr+8, regs[op.rs2+1])

		case isa.OpBeq:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if regs[op.rs1] == regs[op.rs2] {
				m.PC = op.imm
				b.retireFull()
				return m.PC != op.pc+isa.InstrSize, nil
			}
		case isa.OpBne:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if regs[op.rs1] != regs[op.rs2] {
				m.PC = op.imm
				b.retireFull()
				return m.PC != op.pc+isa.InstrSize, nil
			}
		case isa.OpBlt:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if int64(regs[op.rs1]) < int64(regs[op.rs2]) {
				m.PC = op.imm
				b.retireFull()
				return m.PC != op.pc+isa.InstrSize, nil
			}
		case isa.OpBge:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if int64(regs[op.rs1]) >= int64(regs[op.rs2]) {
				m.PC = op.imm
				b.retireFull()
				return m.PC != op.pc+isa.InstrSize, nil
			}
		case isa.OpBltu:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if regs[op.rs1] < regs[op.rs2] {
				m.PC = op.imm
				b.retireFull()
				return m.PC != op.pc+isa.InstrSize, nil
			}
		case isa.OpJmp:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			m.PC = op.imm
			b.retireFull()
			return m.PC != op.pc+isa.InstrSize, nil

		case isa.OpCall, isa.OpCallr:
			target := op.imm
			if op.op == isa.OpCallr {
				target = regs[op.rs1]
			}
			sp := regs[isa.RegSP]
			newSP := sp - isa.WordSize
			if op.handler != nil {
				op.ev.Addr = newSP
				op.ev.Target = target
				op.ev.SP = sp
				op.handler(&op.ev)
			}
			if newSP < m.StackBase-m.StackSize {
				m.PC = op.pc
				b.retirePrefix(i + 1)
				return false, m.trap(op.pc, "stack overflow: sp=%#x", newSP)
			}
			regs[isa.RegSP] = newSP
			m.Mem.Store64(newSP, op.pc+isa.InstrSize)
			m.PC = target
			b.retireFull()
			return m.PC != op.pc+isa.InstrSize, nil

		case isa.OpRet:
			sp := regs[isa.RegSP]
			retPC := m.Mem.Load64(sp)
			if op.handler != nil {
				op.ev.Addr = sp
				op.ev.Target = retPC
				op.ev.SP = sp
				op.handler(&op.ev)
			}
			regs[isa.RegSP] = sp + isa.WordSize
			m.PC = retPC
			b.retireFull()
			return m.PC != op.pc+isa.InstrSize, nil

		case isa.OpSetp:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			m.Pred = regs[op.rs1]

		case isa.OpSyscall:
			if op.handler != nil {
				op.ev.SP = regs[isa.RegSP]
				op.handler(&op.ev)
			}
			if m.syscalls == nil {
				m.PC = op.pc
				b.retirePrefix(i + 1)
				return false, m.trap(op.pc, "syscall %d with no handler", op.ins.Imm)
			}
			if err := m.syscalls.Syscall(m, op.ins.Imm); err != nil {
				m.PC = op.pc
				b.retirePrefix(i + 1)
				return false, m.trap(op.pc, "syscall %d: %v", op.ins.Imm, err)
			}

		default:
			m.PC = op.pc
			b.retirePrefix(i + 1)
			return false, m.trap(op.pc, "unimplemented opcode %v", op.ins.Op)
		}
	}

	m.PC = b.start + uint64(n)*isa.InstrSize
	if capped {
		b.retirePrefix(n)
	} else {
		b.retireFull()
	}
	return false, nil
}

// retireFull reports a complete block execution to the folding probe.
func (b *block) retireFull() {
	if b.retire != nil {
		b.retire(b.totalStatic)
	}
}

// fpOp evaluates a floating-point/conversion opcode; split out of the
// fast loop so the integer hot path stays compact.
func fpOp(op isa.Op, a, bv uint64) uint64 {
	switch op {
	case isa.OpFadd:
		return fbits(f64(a) + f64(bv))
	case isa.OpFsub:
		return fbits(f64(a) - f64(bv))
	case isa.OpFmul:
		return fbits(f64(a) * f64(bv))
	case isa.OpFdiv:
		return fbits(f64(a) / f64(bv))
	case isa.OpFneg:
		return fbits(-f64(a))
	case isa.OpFabs:
		return fbits(math.Abs(f64(a)))
	case isa.OpFsqrt:
		return fbits(math.Sqrt(f64(a)))
	case isa.OpFsin:
		return fbits(math.Sin(f64(a)))
	case isa.OpFcos:
		return fbits(math.Cos(f64(a)))
	case isa.OpFmin:
		return fbits(math.Min(f64(a), f64(bv)))
	case isa.OpFmax:
		return fbits(math.Max(f64(a), f64(bv)))
	case isa.OpFlt:
		return b2u(f64(a) < f64(bv))
	case isa.OpFle:
		return b2u(f64(a) <= f64(bv))
	case isa.OpFeq:
		return b2u(f64(a) == f64(bv))
	case isa.OpI2f:
		return fbits(float64(int64(a)))
	case isa.OpF2i:
		return uint64(int64(math.Trunc(f64(a))))
	}
	return 0
}
