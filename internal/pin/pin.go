// Package pin is the run-time dynamic binary instrumentation framework the
// profiling tools (QUAD, tQUAD, the flat profiler) are written against.
// It mirrors the slice of Intel Pin's API that the paper's pseudocode
// uses:
//
//   - INSAddInstrumentFunction — per-instruction instrumentation hook
//     (Pin's INS_AddInstrumentFunction),
//   - RTNAddInstrumentFunction — per-routine instrumentation hook
//     (Pin's RTN_AddInstrumentFunction),
//   - InsertCall / InsertPredicatedCall on an INS — attach analysis
//     routines, the predicated form being suppressed when the guest
//     predicate is false,
//   - InitSymbols — make routines accessible by name,
//   - routine/image queries (RTNFindByAddress, main-image test).
//
// Instrumentation happens lazily the first time an instruction is
// executed (the VM's code-cache fill), exactly like Pin's JIT: the
// instrumentation callbacks run once per static instruction and decide
// which analysis calls to attach; the analysis calls then run on every
// dynamic execution.
package pin

import (
	"fmt"

	"tquad/internal/image"
	"tquad/internal/isa"
	"tquad/internal/obs"
	"tquad/internal/vm"
)

// INS is the instrumentation-time view of one static instruction.
type INS struct {
	PC    uint64
	Instr isa.Instr

	calls []analysisCall
}

// IsMemoryRead reports whether the instruction reads memory (Pin's
// INS_IsMemoryRead); prefetches are memory reads carrying the prefetch
// flag.
func (ins *INS) IsMemoryRead() bool { return ins.Instr.IsMemRead() }

// IsMemoryWrite reports whether the instruction writes memory.
func (ins *INS) IsMemoryWrite() bool { return ins.Instr.IsMemWrite() }

// IsPrefetch reports whether the instruction is a prefetch.
func (ins *INS) IsPrefetch() bool { return ins.Instr.IsPrefetch() }

// IsRet reports whether the instruction is a function return.
func (ins *INS) IsRet() bool { return ins.Instr.IsReturn() }

// IsCall reports whether the instruction is a function call.
func (ins *INS) IsCall() bool { return ins.Instr.IsCall() }

// MemoryAccessSize returns the byte width of the access.
func (ins *INS) MemoryAccessSize() int { return ins.Instr.AccessSize() }

// AnalysisFunc is an analysis routine: it receives the dynamic event for
// the instruction it was attached to.  Analysis code must treat the event
// as read-only.
type AnalysisFunc func(ctx *Context)

// Context is the dynamic state handed to analysis routines — the
// IARG_* values of Pin (instruction pointer, effective address, access
// size, stack-pointer register, prefetch flag, branch target).
type Context struct {
	// Event carries the dynamic facts of the instrumented event straight
	// from the VM — PC, Addr, Size, SP, Target, Kind and Executed all
	// resolve through it (Executed is false when a predicated
	// instruction was skipped; the event still reaches InsertCall
	// analyses, and is recorded by event tracers, so that predicated
	// suppression can be reproduced exactly).  It is embedded as a
	// pointer so that routing an event into analysis costs two word
	// stores, not a second full copy of the record; the pointee is the
	// machine's scratch event and is only valid for the duration of the
	// analysis call.
	*vm.Event
	Prefetch bool
}

type analysisCall struct {
	fn         AnalysisFunc
	predicated bool
}

// InsertCall attaches an analysis routine that fires on every dynamic
// execution of the instruction, even when a predicated instruction is
// skipped.
func (ins *INS) InsertCall(fn AnalysisFunc) {
	ins.calls = append(ins.calls, analysisCall{fn: fn})
}

// InsertPredicatedCall attaches an analysis routine that fires only when
// the instruction actually executes (Pin's INS_InsertPredicatedCall:
// "ensures that the analysis routine is invoked only if the instruction
// is predicated true").
func (ins *INS) InsertPredicatedCall(fn AnalysisFunc) {
	ins.calls = append(ins.calls, analysisCall{fn: fn, predicated: true})
}

// HasCalls reports whether any analysis routine is attached.
func (ins *INS) HasCalls() bool { return len(ins.calls) > 0 }

// Dispatch invokes the attached analysis routines for one dynamic event,
// honouring predicated suppression exactly like the engine's fused
// handler.  It returns the number of calls fired and suppressed — the
// entry point trace replayers use to drive compiled instrumentation
// without a machine.
func (ins *INS) Dispatch(ctx *Context) (fired, suppressed uint64) {
	for _, c := range ins.calls {
		if c.predicated && !ctx.Executed {
			suppressed++
			continue
		}
		fired++
		c.fn(ctx)
	}
	return fired, suppressed
}

// RTN is the instrumentation-time view of one routine.
type RTN struct {
	Routine image.Routine
	Image   *image.Image

	entryCalls []AnalysisFunc
}

// Name returns the routine's symbol name (requires InitSymbols).
func (r *RTN) Name() string { return r.Routine.Name }

// IsInMainImage reports whether the routine belongs to the program's main
// executable image rather than a library.
func (r *RTN) IsInMainImage() bool { return r.Image != nil && r.Image.Kind == image.Main }

// InsertEntryCall attaches an analysis routine invoked every time control
// enters the routine's first instruction.
func (r *RTN) InsertEntryCall(fn AnalysisFunc) {
	r.entryCalls = append(r.entryCalls, fn)
}

// InstrumentFunc is a per-instruction instrumentation callback.
type InstrumentFunc func(ins *INS)

// RTNInstrumentFunc is a per-routine instrumentation callback, invoked the
// first time any instruction of the routine is reached.
type RTNInstrumentFunc func(rtn *RTN)

// Stats mirrors Pin's internal bookkeeping and feeds the
// instrumentation-overhead experiments.  It is shared by every event
// source that drives analysis routines — the live Engine and the trace
// replayers in internal/etrace — so replayed runs report the same
// counters a live run would.
type Stats struct {
	StaticInstrumented uint64 // static instructions instrumented
	AnalysisCalls      uint64 // dynamic analysis-routine invocations
	SuppressedCalls    uint64 // predicated calls suppressed
	BlocksFolded       uint64 // blocks folded via CompileBlock
	FoldedCalls        uint64 // analysis calls accounted per-block instead of per-call
}

// Host is the event source a tool attaches to: everything the profiling
// tools (core, quad, flatprof) need from the instrumentation framework,
// abstracted from where the dynamic events come from.  *Engine implements
// it over a live vm.Machine; etrace.Consumer implements it over a
// recorded event trace, which is what lets a sweep replay one recording
// per configuration instead of re-executing the guest.
type Host interface {
	// InitSymbols makes routine names available (Pin's PIN_InitSymbols).
	InitSymbols()
	// INSAddInstrumentFunction registers per-instruction instrumentation.
	INSAddInstrumentFunction(fn InstrumentFunc)
	// RTNFindByAddress resolves an address to its routine.
	RTNFindByAddress(pc uint64) (*RTN, bool)
	// ICount returns the guest instructions executed so far.
	ICount() uint64
	// Time returns the simulated clock: ICount plus charged overhead.
	Time() uint64
	// CurrentPC returns the current guest program counter.
	CurrentPC() uint64
	// ChargeOverhead adds simulated analysis cost to the clock.
	ChargeOverhead(n uint64)
	// IsStackAddr reports whether addr lies in the live stack area given
	// the current stack pointer.
	IsStackAddr(addr, sp uint64) bool
}

// Engine couples a machine with registered tools.  It implements
// vm.Probe.
type Engine struct {
	machine *vm.Machine

	insCallbacks   []InstrumentFunc
	rtnCallbacks   []RTNInstrumentFunc
	traceCallbacks []TraceInstrumentFunc

	symbolsInited  bool
	seenRoutines   map[uint64]*RTN           // routine entry -> RTN (after first touch)
	tracedRoutines map[uint64]bool           // routines whose CFG has been instrumented
	blockHeads     map[uint64][]AnalysisFunc // block head pc -> trace analysis calls

	// records retains the outcome of Compile per pc so that CompileBlock
	// can re-fold the same analysis calls into block form without
	// re-running the instrumentation callbacks (which have first-touch
	// side effects: routine/trace instrumentation, static trace records).
	records map[uint64]*insRecord

	// ctx is the scratch analysis context, reused across events.  The
	// engine and its machine are confined to one goroutine and analysis
	// routines must not retain the context, so one scratch value
	// suffices; it removes a heap allocation per dynamic event.
	ctx Context

	// Stats is the engine's instrumentation bookkeeping.
	Stats Stats
}

// insRecord is the retained outcome of compiling one static instruction:
// everything needed to rebuild its dispatch in folded (per-block) form.
type insRecord struct {
	head     []AnalysisFunc // trace/BBL head calls
	entry    []AnalysisFunc // routine entry calls
	calls    []analysisCall
	prefetch bool
	pred     bool // instruction is predicated: Executed is dynamic
}

// NewEngine attaches a new instrumentation engine to the machine.  The
// engine installs itself as the machine's probe; call it before running.
func NewEngine(m *vm.Machine) *Engine {
	e := &Engine{
		machine:      m,
		seenRoutines: make(map[uint64]*RTN),
	}
	m.SetProbe(e)
	return e
}

var _ Host = (*Engine)(nil)

// Machine returns the instrumented machine.
func (e *Engine) Machine() *vm.Machine { return e.machine }

// ICount returns the machine's executed-instruction count.
func (e *Engine) ICount() uint64 { return e.machine.ICount }

// Time returns the machine's simulated clock (ICount + Overhead).
func (e *Engine) Time() uint64 { return e.machine.Time() }

// CurrentPC returns the machine's program counter.
func (e *Engine) CurrentPC() uint64 { return e.machine.PC }

// ChargeOverhead forwards simulated analysis cost to the machine.
func (e *Engine) ChargeOverhead(n uint64) { e.machine.ChargeOverhead(n) }

// IsStackAddr reports whether addr lies in the machine's live stack area.
func (e *Engine) IsStackAddr(addr, sp uint64) bool { return e.machine.IsStackAddr(addr, sp) }

// PublishMetrics exports the engine's bookkeeping into the registry — the
// instrumentation-cost half of the paper's Table III overhead breakdown.
// A nil registry is a no-op.
func (e *Engine) PublishMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Counter("tquad_pin_static_instrumented_total").Add(e.Stats.StaticInstrumented)
	r.Counter("tquad_pin_analysis_calls_total").Add(e.Stats.AnalysisCalls)
	r.Counter("tquad_pin_suppressed_calls_total").Add(e.Stats.SuppressedCalls)
	r.Counter("tquad_pin_blocks_folded_total").Add(e.Stats.BlocksFolded)
	r.Counter("tquad_pin_folded_calls_total").Add(e.Stats.FoldedCalls)
	r.Counter("tquad_pin_dispatched_calls_total").Add(e.Stats.AnalysisCalls - e.Stats.FoldedCalls)
}

// InitSymbols makes routine symbol information available to the tools
// (Pin's PIN_InitSymbols: "must be called to access functions by name").
// Tools that skip it get anonymous routines.
func (e *Engine) InitSymbols() { e.symbolsInited = true }

// INSAddInstrumentFunction registers a per-instruction instrumentation
// callback.
func (e *Engine) INSAddInstrumentFunction(fn InstrumentFunc) {
	e.insCallbacks = append(e.insCallbacks, fn)
}

// RTNAddInstrumentFunction registers a per-routine instrumentation
// callback.
func (e *Engine) RTNAddInstrumentFunction(fn RTNInstrumentFunc) {
	e.rtnCallbacks = append(e.rtnCallbacks, fn)
}

// RTNFindByAddress resolves an address to its routine, consulting the
// symbol tables of all loaded images.
func (e *Engine) RTNFindByAddress(pc uint64) (*RTN, bool) {
	r, img, ok := e.machine.FindRoutine(pc)
	if !ok {
		return nil, false
	}
	rtn := &RTN{Routine: r, Image: img}
	if !e.symbolsInited {
		rtn.Routine.Name = fmt.Sprintf("sub_%x", r.Entry)
	}
	return rtn, true
}

// IsMainImagePC reports whether pc belongs to the main executable image.
func (e *Engine) IsMainImagePC(pc uint64) bool {
	img, ok := e.machine.FindImage(pc)
	return ok && img.Kind == image.Main
}

// Compile implements vm.Probe: it is invoked by the machine's code cache
// the first time each static instruction is reached, runs the registered
// instrumentation callbacks, and returns the fused analysis handler.
func (e *Engine) Compile(pc uint64, instr isa.Instr) vm.Handler {
	// Routine-granularity instrumentation fires once per routine, on
	// first touch of its entry instruction.
	var entryCalls []AnalysisFunc
	if len(e.rtnCallbacks) > 0 {
		if r, img, ok := e.machine.FindRoutine(pc); ok && pc == r.Entry {
			if _, seen := e.seenRoutines[r.Entry]; !seen {
				rtn := &RTN{Routine: r, Image: img}
				if !e.symbolsInited {
					rtn.Routine.Name = fmt.Sprintf("sub_%x", r.Entry)
				}
				for _, cb := range e.rtnCallbacks {
					cb(rtn)
				}
				e.seenRoutines[r.Entry] = rtn
			}
			entryCalls = e.seenRoutines[r.Entry].entryCalls
		}
	}

	// Trace-granularity (basic-block) instrumentation.
	headCalls := e.traceCompile(pc)

	ins := &INS{PC: pc, Instr: instr}
	for _, cb := range e.insCallbacks {
		cb(ins)
	}
	if len(ins.calls) == 0 && len(entryCalls) == 0 && len(headCalls) == 0 {
		return nil
	}
	e.Stats.StaticInstrumented++

	rec := &insRecord{
		head:     headCalls,
		entry:    entryCalls,
		calls:    ins.calls,
		prefetch: instr.IsPrefetch(),
		pred:     instr.Pred,
	}
	if e.records == nil {
		e.records = make(map[uint64]*insRecord)
	}
	e.records[pc] = rec
	return func(ev *vm.Event) {
		ctx := e.fill(ev, rec.prefetch)
		for _, fn := range rec.head {
			e.Stats.AnalysisCalls++
			fn(ctx)
		}
		for _, fn := range rec.entry {
			e.Stats.AnalysisCalls++
			fn(ctx)
		}
		for _, c := range rec.calls {
			if c.predicated && !ctx.Executed {
				e.Stats.SuppressedCalls++
				continue
			}
			e.Stats.AnalysisCalls++
			c.fn(ctx)
		}
	}
}

// fill loads the dynamic facts of one event into the engine's scratch
// analysis context.
func (e *Engine) fill(ev *vm.Event, prefetch bool) *Context {
	e.ctx.Event = ev
	e.ctx.Prefetch = prefetch
	return &e.ctx
}

// CompileBlock implements vm.BlockProbe: when the machine seals a basic
// block it re-folds each slot's analysis dispatch so that the statically
// known bookkeeping — which calls fire whenever the slot's event fires —
// is collapsed into one per-block count applied by the retire hook,
// leaving per-event work only where the facts are dynamic (effective
// addresses, predicate outcomes).  The analysis routines themselves run
// exactly as before, in the same order with the same context values;
// only the per-call accounting moves from the event path to the block
// boundary.
func (e *Engine) CompileBlock(start uint64, ins []isa.Instr, handlers []vm.Handler) ([]vm.Handler, []uint32, func(folded uint64)) {
	slots := make([]vm.Handler, len(ins))
	nstat := make([]uint32, len(ins))
	for i := range ins {
		rec := e.records[start+uint64(i)*isa.InstrSize]
		if rec == nil {
			continue
		}
		slots[i], nstat[i] = e.foldSlot(rec)
	}
	e.Stats.BlocksFolded++
	return slots, nstat, func(folded uint64) {
		e.Stats.AnalysisCalls += folded
		e.Stats.FoldedCalls += folded
	}
}

// foldSlot builds the folded dispatch for one instrumented slot: the
// handler invokes the analysis routines without per-call accounting for
// the statically-fired ones (returned as the static count), while
// predicated calls on predicated instructions — the only dynamically
// suppressed case — keep their per-event bookkeeping.
func (e *Engine) foldSlot(rec *insRecord) (vm.Handler, uint32) {
	nstat := uint32(len(rec.head) + len(rec.entry))
	if !rec.pred {
		// The instruction always executes, so every call fires on every
		// event: the whole dispatch is statically known.
		nstat += uint32(len(rec.calls))
		return func(ev *vm.Event) {
			ctx := e.fill(ev, rec.prefetch)
			for _, fn := range rec.head {
				fn(ctx)
			}
			for _, fn := range rec.entry {
				fn(ctx)
			}
			for _, c := range rec.calls {
				c.fn(ctx)
			}
		}, nstat
	}
	// Predicated instruction: non-predicated calls still fire on every
	// event (they see Executed=false and decide for themselves), so they
	// are statically known too; only IPOINT-predicated calls need the
	// per-event executed check and its dynamic bookkeeping.
	for _, c := range rec.calls {
		if !c.predicated {
			nstat++
		}
	}
	return func(ev *vm.Event) {
		ctx := e.fill(ev, rec.prefetch)
		for _, fn := range rec.head {
			fn(ctx)
		}
		for _, fn := range rec.entry {
			fn(ctx)
		}
		for _, c := range rec.calls {
			if c.predicated {
				if !ctx.Executed {
					e.Stats.SuppressedCalls++
					continue
				}
				e.Stats.AnalysisCalls++
			}
			c.fn(ctx)
		}
	}, nstat
}

var _ vm.BlockProbe = (*Engine)(nil)
