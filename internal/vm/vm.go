// Package vm implements the guest virtual machine: an interpreter for the
// ISA in package isa with an instruction-count clock, a downward-growing
// stack, and probe points for dynamic binary instrumentation.
//
// The split between instrumentation time and analysis time mirrors Pin:
// the first time a PC is reached the machine asks its Probe to "compile"
// the instruction (decide which analysis calls to attach); the resulting
// handler is stored in a code cache keyed by PC and invoked on every
// subsequent execution with the dynamic facts (effective address, access
// size, stack pointer, predicate outcome).
package vm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"tquad/internal/image"
	"tquad/internal/isa"
	"tquad/internal/mem"
	"tquad/internal/obs"
)

// DefaultStackBase is the default top-of-stack address.  The stack grows
// down from here.
const DefaultStackBase = 0x7fff_0000_0000

// DefaultStackSize is the default stack reservation in bytes.
const DefaultStackSize = 8 << 20

// EventKind classifies a probe event.
type EventKind uint8

const (
	// EvPlain is a non-memory, non-control instruction.
	EvPlain EventKind = iota
	// EvRead is a data read from guest memory (loads and prefetches).
	EvRead
	// EvWrite is a data write to guest memory (stores).
	EvWrite
	// EvCall is a direct or indirect call; Addr/Size describe the
	// return-address push on the stack, Target the callee entry.
	EvCall
	// EvReturn is a return; Addr/Size describe the return-address pop,
	// Target the PC being returned to.
	EvReturn
)

func (k EventKind) String() string {
	switch k {
	case EvPlain:
		return "plain"
	case EvRead:
		return "read"
	case EvWrite:
		return "write"
	case EvCall:
		return "call"
	case EvReturn:
		return "return"
	}
	return "?"
}

// Event carries the dynamic facts about one executed instruction to an
// analysis handler.
type Event struct {
	Kind     EventKind
	PC       uint64
	Ins      isa.Instr
	Addr     uint64 // effective address for memory events
	Size     int    // access size in bytes for memory events
	Target   uint64 // callee entry (EvCall) or return PC (EvReturn)
	SP       uint64 // stack pointer before the instruction executed
	Executed bool   // false when a predicated instruction was skipped
}

// Handler is an analysis routine attached to one static instruction.
type Handler func(ev *Event)

// Probe is the instrumentation-time interface.  Compile is invoked once
// per static instruction, the first time its PC is executed; the returned
// handler (may be nil) is cached and invoked at every dynamic execution.
type Probe interface {
	Compile(pc uint64, ins isa.Instr) Handler
}

// SyscallHandler services OpSyscall instructions.  Arguments are in
// r1..r6; the result is returned in r1.
type SyscallHandler interface {
	Syscall(m *Machine, num int32) error
}

// Trap is the error type for guest faults.
type Trap struct {
	PC     uint64
	ICount uint64
	Reason string
}

func (t *Trap) Error() string {
	return fmt.Sprintf("vm: trap at pc=%#x icount=%d: %s", t.PC, t.ICount, t.Reason)
}

// ErrFuel is returned by Run when the instruction budget is exhausted
// before the program halts.
var ErrFuel = errors.New("vm: instruction budget exhausted")

// CancelError is returned by RunContext when a run is stopped by its
// context (cancellation or deadline) or by the watchdog rather than by a
// guest fault.  It is deliberately distinct from Trap: a trap is the
// guest's fault and deterministic, a cancellation is the host's decision
// and says nothing about the guest.  Unwrap exposes the cause, so
// errors.Is(err, context.Canceled) / context.DeadlineExceeded work.
type CancelError struct {
	PC     uint64
	ICount uint64
	Cause  error
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("vm: run cancelled at pc=%#x icount=%d: %v", e.PC, e.ICount, e.Cause)
}

func (e *CancelError) Unwrap() error { return e.Cause }

// IsCancel reports whether err is (or wraps) a run cancellation.
func IsCancel(err error) bool {
	var ce *CancelError
	return errors.As(err, &ce)
}

// cacheEntry is one slot of the code cache: the decoded instruction plus
// its attached analysis handler.
type cacheEntry struct {
	ins     isa.Instr
	handler Handler
	valid   bool
}

// Machine is the guest CPU plus memory.
//
// Concurrency contract: a Machine and everything reachable from it (its
// Memory, code cache, probe/engine, and syscall handler) is confined to
// one goroutine; none of it is synchronised.  Distinct Machines are
// fully independent and may run concurrently — the only state they share
// is the loaded image.Image set, which is immutable after construction
// (LoadImage copies segment bytes into the machine's own memory).  The
// parallel experiment scheduler (internal/study) relies on this.
type Machine struct {
	Regs [isa.NumRegs]uint64
	PC   uint64
	Pred uint64 // predicate register P

	Mem    *mem.Memory
	Images []*image.Image

	// ICount counts executed guest instructions: the platform-independent
	// clock the paper uses for all timing.
	ICount uint64
	// Overhead accumulates simulated analysis-routine cost charged by
	// profilers via ChargeOverhead; total simulated time is
	// ICount+Overhead.
	Overhead uint64
	// MemStats counts dynamic memory references by access size and
	// prefetches skipped — the machine's per-run observability counters.
	MemStats MemStats

	StackBase uint64
	StackSize uint64

	Halted   bool
	ExitCode int64

	syscalls SyscallHandler
	probe    Probe

	// CacheEnabled selects the Pin-style code cache (decode+instrument
	// once) versus decode-per-step.  On by default; the ablation
	// benchmark flips it.
	CacheEnabled bool

	// BlockEngine selects the pre-decoded basic-block execution engine
	// for Run/RunContext (see block.go).  On by default; requires the
	// code cache (warming executes through it), so disabling
	// CacheEnabled also disables the block engine.  Step is unaffected
	// either way and remains the reference interpreter.
	BlockEngine bool

	// BlockStats counts block-engine activity (compiles, sealed blocks,
	// cache hits, fast-path runs); see PublishBlockMetrics.
	BlockStats BlockStats

	// Watchdog, if set, is polled by RunContext at basic-block
	// boundaries (after every taken control transfer), alongside the
	// context check.  A non-nil return aborts the run with that error.
	// It is the supervision seam for instruction-budget policies beyond
	// the plain fuel cap and for deterministic fault injection
	// (internal/chaos traps or hangs a run at instruction N through it).
	Watchdog func(m *Machine) error

	// The code cache holds one slot per instruction of the loaded
	// images' code segments ([Base, CodeEnd) of each), found through
	// codeIdx, so it is sized by the code and not by the address gap
	// between a main image and its library.  PCs without a slot (code
	// outside every image, images past the index's two ranges,
	// unaligned PCs) fall back to a map.
	codeIdx  isa.PCIndex
	cacheArr []cacheEntry
	cache    map[uint64]*cacheEntry
	ev       Event // scratch event, reused to avoid per-step allocation

	// The block cache shares the code cache's slots and map fallback.
	// Invalidated whenever the code cache is (LoadImage, SetProbe) and
	// on Reset.
	blockArr []*block
	blockMap map[uint64]*block
}

// maxCodeSlots caps the code cache's dense slots: 1M slots cover 8 MiB
// of code, and images past the cap run through the map fallback.
const maxCodeSlots = 1 << 20

// New creates a machine with empty memory and default stack placement.
func New() *Machine {
	return &Machine{
		Mem:          mem.New(),
		StackBase:    DefaultStackBase,
		StackSize:    DefaultStackSize,
		CacheEnabled: true,
		BlockEngine:  true,
		cache:        make(map[uint64]*cacheEntry),
	}
}

// SetSyscallHandler installs the OS personality.
func (m *Machine) SetSyscallHandler(h SyscallHandler) { m.syscalls = h }

// SetProbe installs the instrumentation probe and invalidates the code
// cache so every instruction is re-instrumented.
func (m *Machine) SetProbe(p Probe) {
	m.probe = p
	m.flushCache()
}

// flushCache drops every cached decode, and with it every compiled
// block (blocks hold harvested handlers, so they can never outlive the
// code cache they were harvested from).
func (m *Machine) flushCache() {
	clear(m.cache)
	clear(m.cacheArr)
	m.flushBlocks()
}

// indexCode sizes the code cache to the loaded images' code segments.
func (m *Machine) indexCode() {
	ranges := make([]isa.CodeRange, len(m.Images))
	for i, img := range m.Images {
		ranges[i] = isa.CodeRange{Lo: img.Base, Hi: img.CodeEnd()}
	}
	m.codeIdx = isa.NewPCIndex(maxCodeSlots, ranges...)
	m.cacheArr = make([]cacheEntry, m.codeIdx.Len())
}

// ChargeOverhead adds simulated analysis cost (in instruction-equivalents)
// to the machine clock.  Analysis routines run outside the guest, so the
// cost lands in the separate Overhead counter.
func (m *Machine) ChargeOverhead(n uint64) { m.Overhead += n }

// Time returns the total simulated time: guest instructions plus
// instrumentation overhead.
func (m *Machine) Time() uint64 { return m.ICount + m.Overhead }

// MemSizeClasses are the access sizes the ISA supports, indexing the
// MemStats per-size arrays.
var MemSizeClasses = [5]int{1, 2, 4, 8, 16}

// MemStats counts the machine's dynamic memory-reference activity: ops by
// access size (separately for reads and writes) and prefetch instructions
// taken through the skipped-load fast path.  Plain counters updated
// inline by Step, so they are valid whether or not observability is on.
type MemStats struct {
	ReadOps    [5]uint64 // by size class 1, 2, 4, 8, 16 bytes
	WriteOps   [5]uint64
	Prefetches uint64
}

// sizeClass maps an access size (1, 2, 4, 8, 16) to its array index.
func sizeClass(size int) int { return bits.TrailingZeros8(uint8(size)) }

// ReadBytes returns the total bytes read (prefetches excluded).
func (s *MemStats) ReadBytes() uint64 {
	var n uint64
	for i, ops := range s.ReadOps {
		n += ops << i
	}
	return n
}

// WriteBytes returns the total bytes written.
func (s *MemStats) WriteBytes() uint64 {
	var n uint64
	for i, ops := range s.WriteOps {
		n += ops << i
	}
	return n
}

// PublishMetrics exports the machine's per-run counters into the
// registry (guest instructions retired, memory refs by size, prefetches
// skipped, simulated overhead).  Call once, after the run; a nil registry
// is a no-op.
func (m *Machine) PublishMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Counter("tquad_vm_instructions_total").Add(m.ICount)
	r.Counter("tquad_vm_overhead_instr_total").Add(m.Overhead)
	r.Counter("tquad_vm_prefetch_skipped_total").Add(m.MemStats.Prefetches)
	r.Counter("tquad_vm_mem_read_bytes_total").Add(m.MemStats.ReadBytes())
	r.Counter("tquad_vm_mem_write_bytes_total").Add(m.MemStats.WriteBytes())
	for i, size := range MemSizeClasses {
		label := fmt.Sprintf("%d", size)
		if n := m.MemStats.ReadOps[i]; n > 0 {
			r.Counter(obs.Label("tquad_vm_mem_reads_total", "size", label)).Add(n)
		}
		if n := m.MemStats.WriteOps[i]; n > 0 {
			r.Counter(obs.Label("tquad_vm_mem_writes_total", "size", label)).Add(n)
		}
	}
	if m.BlockStats.Entries > 0 {
		m.PublishBlockMetrics(r)
	}
}

// LoadImage places an image's segments into guest memory and registers it
// for PC lookups.
func (m *Machine) LoadImage(img *image.Image) {
	m.Mem.Write(img.Base, img.Code)
	if len(img.Data) > 0 {
		m.Mem.Write(img.DataBase, img.Data)
	}
	m.Images = append(m.Images, img)
	m.indexCode()
	m.flushCache()
}

// FindImage returns the image containing pc, if any.
func (m *Machine) FindImage(pc uint64) (*image.Image, bool) {
	for _, img := range m.Images {
		if img.ContainsPC(pc) {
			return img, true
		}
	}
	return nil, false
}

// FindRoutine resolves pc to its routine and image.
func (m *Machine) FindRoutine(pc uint64) (image.Routine, *image.Image, bool) {
	for _, img := range m.Images {
		if img.ContainsPC(pc) {
			if r, ok := img.FindRoutine(pc); ok {
				return r, img, true
			}
			return image.Routine{}, img, false
		}
	}
	return image.Routine{}, nil, false
}

// Reset prepares the machine to start executing at entry with a fresh
// stack and clean counters.  Loaded images and memory contents persist.
func (m *Machine) Reset(entry uint64) {
	for i := range m.Regs {
		m.Regs[i] = 0
	}
	m.PC = entry
	m.Pred = 0
	m.ICount = 0
	m.Overhead = 0
	m.MemStats = MemStats{}
	m.Halted = false
	m.ExitCode = 0
	m.Regs[isa.RegSP] = m.StackBase
	// A reset conventionally precedes running different guest code that
	// was written over the old (tests and REPL-style drivers reuse one
	// machine this way), so compiled blocks must not survive it.
	m.flushBlocks()
}

// SP returns the current stack pointer.
func (m *Machine) SP() uint64 { return m.Regs[isa.RegSP] }

// IsStackAddr reports whether addr lies in the live local-stack area for
// the given stack pointer: at or above SP and below the stack base.  This
// is the classification the paper's include/exclude-stack option applies,
// using the REG_STACK_PTR value passed to the analysis routine.
func (m *Machine) IsStackAddr(addr, sp uint64) bool {
	return addr >= sp && addr < m.StackBase
}

func (m *Machine) reg(i uint8) uint64 {
	if i == isa.RegZero {
		return 0
	}
	return m.Regs[i]
}

func (m *Machine) setReg(i uint8, v uint64) {
	if i != isa.RegZero {
		m.Regs[i] = v
	}
}

func f64(v uint64) float64   { return math.Float64frombits(v) }
func fbits(f float64) uint64 { return math.Float64bits(f) }

func (m *Machine) trap(pc uint64, format string, args ...any) error {
	return &Trap{PC: pc, ICount: m.ICount, Reason: fmt.Sprintf(format, args...)}
}

// entry returns the cached (and instrumented) decode of the instruction at
// pc, decoding and instrumenting on first touch.
func (m *Machine) entry(pc uint64) (*cacheEntry, error) {
	var slot *cacheEntry
	if m.CacheEnabled {
		if i, ok := m.codeIdx.Slot(pc); ok {
			slot = &m.cacheArr[i]
			if slot.valid {
				return slot, nil
			}
		} else if e, ok := m.cache[pc]; ok {
			return e, nil
		}
	}
	var buf [isa.InstrSize]byte
	m.Mem.Read(pc, buf[:])
	ins, err := isa.Decode(buf[:])
	if err != nil {
		return nil, m.trap(pc, "decode: %v", err)
	}
	e := &cacheEntry{ins: ins, valid: true}
	if m.probe != nil {
		e.handler = m.probe.Compile(pc, ins)
	}
	if m.CacheEnabled {
		if slot != nil {
			*slot = *e
			return slot, nil
		}
		m.cache[pc] = e
	}
	return e, nil
}

// emit dispatches one event to the attached handler, if any.
func (m *Machine) emit(h Handler, kind EventKind, pc uint64, ins isa.Instr, addr uint64, size int, target, sp uint64, executed bool) {
	if h == nil {
		return
	}
	m.ev = Event{Kind: kind, PC: pc, Ins: ins, Addr: addr, Size: size, Target: target, SP: sp, Executed: executed}
	h(&m.ev)
}

// Step executes a single instruction.  It returns an error on trap; a
// clean HALT sets m.Halted.
func (m *Machine) Step() error {
	pc := m.PC
	e, err := m.entry(pc)
	if err != nil {
		return err
	}
	ins := e.ins
	h := e.handler
	sp := m.Regs[isa.RegSP]
	m.ICount++
	next := pc + isa.InstrSize

	if ins.Pred && m.Pred == 0 {
		// Predicated-false: the instruction occupies a slot in the
		// dynamic stream but performs no architectural action.  The
		// analysis call still fires with Executed=false so that
		// InsertPredicatedCall semantics can be honoured by the
		// framework (the call is suppressed there, not here).
		m.emit(h, eventKind(ins), pc, ins, 0, 0, 0, sp, false)
		m.PC = next
		return nil
	}

	switch ins.Op {
	case isa.OpNop:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)

	case isa.OpHalt:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.Halted = true
		m.ExitCode = int64(m.reg(ins.Rs1))
		return nil

	case isa.OpLdi:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, uint64(int64(ins.Imm)))
	case isa.OpLdiu:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, uint64(uint32(ins.Imm)))
	case isa.OpLuhi:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, m.reg(ins.Rd)&0xffffffff|uint64(uint32(ins.Imm))<<32)
	case isa.OpMov:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, m.reg(ins.Rs1))

	case isa.OpAdd:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, m.reg(ins.Rs1)+m.reg(ins.Rs2))
	case isa.OpSub:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, m.reg(ins.Rs1)-m.reg(ins.Rs2))
	case isa.OpMul:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, m.reg(ins.Rs1)*m.reg(ins.Rs2))
	case isa.OpDiv:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		d := int64(m.reg(ins.Rs2))
		if d == 0 {
			return m.trap(pc, "integer division by zero")
		}
		m.setReg(ins.Rd, uint64(int64(m.reg(ins.Rs1))/d))
	case isa.OpRem:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		d := int64(m.reg(ins.Rs2))
		if d == 0 {
			return m.trap(pc, "integer remainder by zero")
		}
		m.setReg(ins.Rd, uint64(int64(m.reg(ins.Rs1))%d))
	case isa.OpAnd:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, m.reg(ins.Rs1)&m.reg(ins.Rs2))
	case isa.OpOr:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, m.reg(ins.Rs1)|m.reg(ins.Rs2))
	case isa.OpXor:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, m.reg(ins.Rs1)^m.reg(ins.Rs2))
	case isa.OpShl:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, m.reg(ins.Rs1)<<(m.reg(ins.Rs2)&63))
	case isa.OpShr:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, m.reg(ins.Rs1)>>(m.reg(ins.Rs2)&63))
	case isa.OpSar:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, uint64(int64(m.reg(ins.Rs1))>>(m.reg(ins.Rs2)&63)))

	case isa.OpAddi:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, m.reg(ins.Rs1)+uint64(int64(ins.Imm)))
	case isa.OpMuli:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, m.reg(ins.Rs1)*uint64(int64(ins.Imm)))
	case isa.OpAndi:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, m.reg(ins.Rs1)&uint64(int64(ins.Imm)))
	case isa.OpOri:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, m.reg(ins.Rs1)|uint64(int64(ins.Imm)))
	case isa.OpShli:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, m.reg(ins.Rs1)<<(uint32(ins.Imm)&63))
	case isa.OpShri:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, m.reg(ins.Rs1)>>(uint32(ins.Imm)&63))

	case isa.OpSlt:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, b2u(int64(m.reg(ins.Rs1)) < int64(m.reg(ins.Rs2))))
	case isa.OpSltu:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, b2u(m.reg(ins.Rs1) < m.reg(ins.Rs2)))
	case isa.OpSeq:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, b2u(m.reg(ins.Rs1) == m.reg(ins.Rs2)))
	case isa.OpSlti:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, b2u(int64(m.reg(ins.Rs1)) < int64(ins.Imm)))

	case isa.OpFadd:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, fbits(f64(m.reg(ins.Rs1))+f64(m.reg(ins.Rs2))))
	case isa.OpFsub:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, fbits(f64(m.reg(ins.Rs1))-f64(m.reg(ins.Rs2))))
	case isa.OpFmul:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, fbits(f64(m.reg(ins.Rs1))*f64(m.reg(ins.Rs2))))
	case isa.OpFdiv:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, fbits(f64(m.reg(ins.Rs1))/f64(m.reg(ins.Rs2))))
	case isa.OpFneg:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, fbits(-f64(m.reg(ins.Rs1))))
	case isa.OpFabs:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, fbits(math.Abs(f64(m.reg(ins.Rs1)))))
	case isa.OpFsqrt:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, fbits(math.Sqrt(f64(m.reg(ins.Rs1)))))
	case isa.OpFsin:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, fbits(math.Sin(f64(m.reg(ins.Rs1)))))
	case isa.OpFcos:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, fbits(math.Cos(f64(m.reg(ins.Rs1)))))
	case isa.OpFmin:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, fbits(math.Min(f64(m.reg(ins.Rs1)), f64(m.reg(ins.Rs2)))))
	case isa.OpFmax:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, fbits(math.Max(f64(m.reg(ins.Rs1)), f64(m.reg(ins.Rs2)))))
	case isa.OpFlt:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, b2u(f64(m.reg(ins.Rs1)) < f64(m.reg(ins.Rs2))))
	case isa.OpFle:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, b2u(f64(m.reg(ins.Rs1)) <= f64(m.reg(ins.Rs2))))
	case isa.OpFeq:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, b2u(f64(m.reg(ins.Rs1)) == f64(m.reg(ins.Rs2))))
	case isa.OpI2f:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, fbits(float64(int64(m.reg(ins.Rs1)))))
	case isa.OpF2i:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.setReg(ins.Rd, uint64(int64(math.Trunc(f64(m.reg(ins.Rs1))))))

	case isa.OpLd1, isa.OpLd2, isa.OpLd2s, isa.OpLd4, isa.OpLd4s, isa.OpLd8, isa.OpPrefetch:
		addr := m.reg(ins.Rs1) + uint64(int64(ins.Imm))
		size := ins.AccessSize()
		m.emit(h, EvRead, pc, ins, addr, size, 0, sp, true)
		if ins.Op == isa.OpPrefetch {
			m.MemStats.Prefetches++
		} else {
			m.MemStats.ReadOps[sizeClass(size)]++
			v, err := m.Mem.ReadUint(addr, size)
			if err != nil {
				return m.trap(pc, "load: %v", err)
			}
			switch ins.Op {
			case isa.OpLd2s:
				v = uint64(int64(int16(v)))
			case isa.OpLd4s:
				v = uint64(int64(int32(v)))
			}
			m.setReg(ins.Rd, v)
		}

	case isa.OpSt1, isa.OpSt2, isa.OpSt4, isa.OpSt8:
		addr := m.reg(ins.Rs1) + uint64(int64(ins.Imm))
		size := ins.AccessSize()
		m.emit(h, EvWrite, pc, ins, addr, size, 0, sp, true)
		m.MemStats.WriteOps[sizeClass(size)]++
		if err := m.Mem.WriteUint(addr, m.reg(ins.Rs2), size); err != nil {
			return m.trap(pc, "store: %v", err)
		}

	case isa.OpLd16:
		addr := m.reg(ins.Rs1) + uint64(int64(ins.Imm))
		m.emit(h, EvRead, pc, ins, addr, 16, 0, sp, true)
		m.MemStats.ReadOps[sizeClass(16)]++
		m.setReg(ins.Rd, m.Mem.ReadUint64(addr))
		m.setReg(ins.Rd+1, m.Mem.ReadUint64(addr+8))

	case isa.OpSt16:
		addr := m.reg(ins.Rs1) + uint64(int64(ins.Imm))
		m.emit(h, EvWrite, pc, ins, addr, 16, 0, sp, true)
		m.MemStats.WriteOps[sizeClass(16)]++
		m.Mem.WriteUint64(addr, m.reg(ins.Rs2))
		m.Mem.WriteUint64(addr+8, m.reg(ins.Rs2+1))

	case isa.OpBeq:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		if m.reg(ins.Rs1) == m.reg(ins.Rs2) {
			next = branchTarget(pc, ins.Imm)
		}
	case isa.OpBne:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		if m.reg(ins.Rs1) != m.reg(ins.Rs2) {
			next = branchTarget(pc, ins.Imm)
		}
	case isa.OpBlt:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		if int64(m.reg(ins.Rs1)) < int64(m.reg(ins.Rs2)) {
			next = branchTarget(pc, ins.Imm)
		}
	case isa.OpBge:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		if int64(m.reg(ins.Rs1)) >= int64(m.reg(ins.Rs2)) {
			next = branchTarget(pc, ins.Imm)
		}
	case isa.OpBltu:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		if m.reg(ins.Rs1) < m.reg(ins.Rs2) {
			next = branchTarget(pc, ins.Imm)
		}
	case isa.OpJmp:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		next = branchTarget(pc, ins.Imm)

	case isa.OpCall, isa.OpCallr:
		target := uint64(uint32(ins.Imm))
		if ins.Op == isa.OpCallr {
			target = m.reg(ins.Rs1)
		}
		newSP := sp - isa.WordSize
		m.emit(h, EvCall, pc, ins, newSP, isa.WordSize, target, sp, true)
		if newSP < m.StackBase-m.StackSize {
			return m.trap(pc, "stack overflow: sp=%#x", newSP)
		}
		m.Regs[isa.RegSP] = newSP
		m.Mem.WriteUint64(newSP, next)
		next = target

	case isa.OpRet:
		retPC := m.Mem.ReadUint64(sp)
		m.emit(h, EvReturn, pc, ins, sp, isa.WordSize, retPC, sp, true)
		m.Regs[isa.RegSP] = sp + isa.WordSize
		next = retPC

	case isa.OpSetp:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		m.Pred = m.reg(ins.Rs1)

	case isa.OpSyscall:
		m.emit(h, EvPlain, pc, ins, 0, 0, 0, sp, true)
		if m.syscalls == nil {
			return m.trap(pc, "syscall %d with no handler", ins.Imm)
		}
		if err := m.syscalls.Syscall(m, ins.Imm); err != nil {
			return m.trap(pc, "syscall %d: %v", ins.Imm, err)
		}

	default:
		return m.trap(pc, "unimplemented opcode %v", ins.Op)
	}

	m.PC = next
	return nil
}

// eventKind classifies an instruction for a skipped (predicated-false)
// event.
func eventKind(ins isa.Instr) EventKind {
	switch {
	case ins.IsMemRead():
		return EvRead
	case ins.IsMemWrite():
		return EvWrite
	case ins.IsCall():
		return EvCall
	case ins.IsReturn():
		return EvReturn
	}
	return EvPlain
}

func branchTarget(pc uint64, imm int32) uint64 {
	return pc + isa.InstrSize + uint64(int64(imm))*isa.InstrSize
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Run executes until the program halts, traps, or maxInstr instructions
// have been executed (0 means no budget).  It returns ErrFuel when the
// budget runs out.
func (m *Machine) Run(maxInstr uint64) error {
	return m.RunContext(context.Background(), maxInstr)
}

// PushWatchdog composes fn onto the machine's watchdog chain: fn runs
// first at every block boundary, then whatever watchdog was already
// installed.  It lets independent supervisors — a fault injector's trap,
// a progress heartbeat — stack without knowing about each other.  A nil
// fn leaves the chain unchanged.
func (m *Machine) PushWatchdog(fn func(m *Machine) error) {
	if fn == nil {
		return
	}
	prev := m.Watchdog
	if prev == nil {
		m.Watchdog = fn
		return
	}
	m.Watchdog = func(m *Machine) error {
		if err := fn(m); err != nil {
			return err
		}
		return prev(m)
	}
}

// RunContext is Run with supervision: the context and the machine's
// Watchdog are checked at basic-block boundaries — after every taken
// control transfer, not per instruction, so the straight-line hot path
// pays nothing — and a cancelled or expired context stops the run with a
// *CancelError carrying the interruption point.  A context without a
// Done channel and a nil Watchdog take the unsupervised fast loop,
// identical to the pre-supervision Run.
func (m *Machine) RunContext(ctx context.Context, maxInstr uint64) error {
	if m.BlockEngine && m.CacheEnabled {
		return m.runBlocks(ctx, maxInstr)
	}
	done := ctx.Done()
	if done == nil && m.Watchdog == nil {
		for !m.Halted {
			if maxInstr != 0 && m.ICount >= maxInstr {
				return ErrFuel
			}
			if err := m.Step(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := ctx.Err(); err != nil {
		return &CancelError{PC: m.PC, ICount: m.ICount, Cause: err}
	}
	for !m.Halted {
		if maxInstr != 0 && m.ICount >= maxInstr {
			return ErrFuel
		}
		pc := m.PC
		if err := m.Step(); err != nil {
			return err
		}
		if m.Halted || m.PC == pc+isa.InstrSize {
			// Straight-line flow: still inside the basic block.
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
