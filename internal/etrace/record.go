package etrace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"tquad/internal/image"
	"tquad/internal/isa"
	"tquad/internal/pin"
	"tquad/internal/vm"
)

// RecordOptions configure one recording.
type RecordOptions struct {
	// Workload is a free-form label stored in the header (the workload
	// name, for inspection).
	Workload string

	// formatVersion overrides the trace format revision written (0 means
	// the current Version).  Only the compatibility tests set it: every
	// production recording is written at the current revision.
	formatVersion byte
}

// writer serialises records into chunked output.  Errors are sticky; the
// first one is reported by Finish.
type writer struct {
	out     io.Writer
	buf     []byte
	err     error
	version byte

	// Delta-chain state, reset at every chunk boundary.
	prevIC, prevPC, prevAddr, prevSP, prevTarget uint64

	// Index accounting: one ChunkRef per sealed chunk, written as the
	// footer by end().
	off          int64 // file offset of the next chunk's length prefix
	index        []ChunkRef
	chunkRecords uint64
	chunkEvents  uint64
	chunkStartIC uint64
	lastIC       uint64
}

func newWriter(out io.Writer, hdr header) *writer {
	if hdr.version == 0 {
		hdr.version = Version
	}
	w := &writer{out: out, buf: make([]byte, 0, chunkTarget+256), version: hdr.version}
	var b []byte
	b = append(b, magic...)
	b = append(b, hdr.version)
	b = binary.AppendUvarint(b, hdr.stackBase)
	b = binary.AppendUvarint(b, uint64(len(hdr.workload)))
	b = append(b, hdr.workload...)
	b = binary.AppendUvarint(b, uint64(len(hdr.routines)))
	for _, r := range hdr.routines {
		b = binary.AppendUvarint(b, uint64(len(r.Name)))
		b = append(b, r.Name...)
		b = binary.AppendUvarint(b, r.Entry)
		b = binary.AppendUvarint(b, r.End)
		var flags byte
		if r.Main {
			flags = 1
		}
		b = append(b, flags)
	}
	if hdr.version >= 2 {
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	}
	if _, err := out.Write(b); err != nil {
		w.err = err
	}
	w.off = int64(len(b))
	return w
}

func (w *writer) resetDeltas() {
	w.prevIC, w.prevPC, w.prevAddr, w.prevSP, w.prevTarget = 0, 0, 0, 0, 0
}

// flush seals the current chunk: payload checksum (version >= 2), length
// prefix, payload, fresh deltas — and records the chunk's index entry.
// The CRC lands inside the length prefix, so framing (and every framing
// consumer: the frame scan, frameLen, decodeChunk) is version-independent.
func (w *writer) flush() {
	if w.err != nil || len(w.buf) == 0 {
		return
	}
	if w.version >= 2 {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(w.buf, castagnoli))
	}
	w.index = append(w.index, ChunkRef{
		Offset:  w.off,
		Size:    int64(len(w.buf)),
		Records: w.chunkRecords,
		Events:  w.chunkEvents,
		StartIC: w.chunkStartIC,
		EndIC:   w.lastIC,
	})
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(w.buf)))
	if _, err := w.out.Write(hdr[:n]); err != nil {
		w.err = err
		return
	}
	if _, err := w.out.Write(w.buf); err != nil {
		w.err = err
		return
	}
	w.off += int64(n) + int64(len(w.buf))
	w.buf = w.buf[:0]
	w.chunkRecords, w.chunkEvents = 0, 0
	w.chunkStartIC = w.lastIC
	w.resetDeltas()
}

func (w *writer) delta(v uint64, prev *uint64) {
	w.buf = binary.AppendUvarint(w.buf, zigzag(int64(v-*prev)))
	*prev = v
}

// event appends one dynamic record.  All architectural values pass
// through delta chains verbatim, so the decoder reproduces the emitted
// vm.Event exactly — including the zeroed fields of skipped predicated
// instructions — with no per-kind reconstruction logic.
func (w *writer) event(kind byte, ic uint64, ctx *pin.Context) {
	if w.err != nil {
		return
	}
	bits, err := sizeBits(ctx.Size)
	if err != nil {
		w.err = err
		return
	}
	tag := kind | bits<<sizeShift
	if !ctx.Executed {
		tag |= flagSkipped
	}
	w.buf = append(w.buf, tag)
	w.buf = binary.AppendUvarint(w.buf, ic-w.prevIC)
	w.prevIC = ic
	w.chunkRecords++
	w.chunkEvents++
	w.lastIC = ic
	w.delta(ctx.PC, &w.prevPC)
	w.delta(ctx.Addr, &w.prevAddr)
	w.delta(ctx.SP, &w.prevSP)
	if kind == recCall || kind == recReturn {
		w.delta(ctx.Target, &w.prevTarget)
	}
	if len(w.buf) >= chunkTarget {
		w.flush()
	}
}

// static records one compiled instruction ahead of its first dynamic
// event.
func (w *writer) static(pc uint64, instr isa.Instr) {
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, recStatic)
	w.buf = binary.AppendUvarint(w.buf, pc)
	w.buf = instr.EncodeTo(w.buf)
	w.chunkRecords++
	if len(w.buf) >= chunkTarget {
		w.flush()
	}
}

// end appends the trailer record, seals the final chunk, and writes the
// index footer.
func (w *writer) end(ic, pc uint64, exitCode int64, halted bool) error {
	if w.err == nil {
		w.buf = append(w.buf, recEnd)
		w.buf = binary.AppendUvarint(w.buf, ic)
		w.buf = binary.AppendUvarint(w.buf, pc)
		w.buf = binary.AppendUvarint(w.buf, zigzag(exitCode))
		var flags byte
		if halted {
			flags = 1
		}
		w.buf = append(w.buf, flags)
		w.chunkRecords++
		w.lastIC = ic
	}
	w.flush()
	if w.err == nil {
		iv := byte(indexVersion)
		if w.version >= 2 {
			iv = indexVersionCRC
		}
		if _, err := w.out.Write(appendFooter(nil, w.index, iv)); err != nil {
			w.err = err
		}
	}
	return w.err
}

// Recorder captures a machine's dynamic event stream while it runs.  It
// attaches to the engine exactly like a profiling tool and can record
// alongside any set of tools: analysis routines never perturb the guest,
// so the recorded stream is the same whether or not a profiler shares
// the run.
type Recorder struct {
	engine *pin.Engine
	w      *writer

	seen map[uint64]bool // pcs whose static record has been written
}

// Record attaches a recorder to the engine, writing the trace to out.
// Call before running the machine; call Finish after it halts.  The
// header (stack base and the full routine table of every loaded image)
// is written immediately, so out must be ready for writes.
func Record(e *pin.Engine, out io.Writer, opts RecordOptions) (*Recorder, error) {
	m := e.Machine()
	ver := opts.formatVersion
	if ver == 0 {
		ver = Version
	}
	hdr := header{version: ver, stackBase: m.StackBase, workload: opts.Workload}
	for _, img := range m.Images {
		main := img.Kind == image.Main
		for _, rt := range img.Routines() {
			hdr.routines = append(hdr.routines, Routine{
				Name: rt.Name, Entry: rt.Entry, End: rt.End, Main: main,
			})
		}
	}
	sort.Slice(hdr.routines, func(i, j int) bool { return hdr.routines[i].Entry < hdr.routines[j].Entry })

	r := &Recorder{engine: e, w: newWriter(out, hdr), seen: make(map[uint64]bool)}
	if r.w.err != nil {
		return nil, fmt.Errorf("etrace: write header: %w", r.w.err)
	}
	e.INSAddInstrumentFunction(r.instruction)
	return r, nil
}

// instruction is the recorder's instrumentation callback: event-kind
// instructions (memory references, calls, returns) get their static
// record written and an analysis call that appends the dynamic record.
func (r *Recorder) instruction(ins *pin.INS) {
	if !(ins.IsCall() || ins.IsRet() || ins.IsMemoryRead() || ins.IsMemoryWrite()) {
		return
	}
	if !r.seen[ins.PC] {
		r.seen[ins.PC] = true
		r.w.static(ins.PC, ins.Instr)
	}
	ins.InsertCall(func(ctx *pin.Context) {
		r.w.event(recKind(ctx.Kind), r.engine.ICount(), ctx)
	})
}

// Finish writes the end record (final instruction count, final pc, exit
// status) and reports the first write error, if any.  Call it after the
// machine has stopped.
func (r *Recorder) Finish() error {
	m := r.engine.Machine()
	if err := r.w.end(m.ICount, m.PC, m.ExitCode, m.Halted); err != nil {
		return fmt.Errorf("etrace: %w", err)
	}
	return nil
}

// recKind maps a vm event kind to its record kind.
func recKind(k vm.EventKind) byte {
	switch k {
	case vm.EvRead:
		return recRead
	case vm.EvWrite:
		return recWrite
	case vm.EvCall:
		return recCall
	case vm.EvReturn:
		return recReturn
	}
	return recRead // unreachable: only event-kind instructions are recorded
}
