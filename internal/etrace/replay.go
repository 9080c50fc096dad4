package etrace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"tquad/internal/image"
	"tquad/internal/isa"
	"tquad/internal/obs"
	"tquad/internal/pin"
	"tquad/internal/vm"
)

// chunkParser decodes records out of one chunk payload.  Delta chains
// reset with the chunk, so a parser needs nothing beyond the payload
// bytes — the property that lets ParallelReplayer hand different chunks
// to different goroutines.  It never trusts the input: every length is
// capped, every varint checked, and a chunk that ends mid-record is an
// error, so arbitrary bytes produce a clean error instead of a panic or
// an unbounded allocation (FuzzReplay's contract).
type chunkParser struct {
	chunk []byte
	off   int

	prevIC, prevPC, prevAddr, prevSP, prevTarget uint64
}

// record is one decoded trace record; fields are populated per kind.
type record struct {
	kind     byte
	executed bool
	size     int

	ic, pc, addr, sp, target uint64

	instr isa.Instr // recStatic

	start  uint64 // recBlockDef
	ninstr int    // recBlockDef
	id     uint64 // recBlock

	exitCode int64 // recEnd
	halted   bool  // recEnd
}

// reset points the parser at a fresh chunk payload.
func (p *chunkParser) reset(chunk []byte) {
	p.chunk = chunk
	p.off = 0
	p.prevIC, p.prevPC, p.prevAddr, p.prevSP, p.prevTarget = 0, 0, 0, 0, 0
}

// done reports whether the chunk is fully consumed.
func (p *chunkParser) done() bool { return p.off == len(p.chunk) }

// parseRecord decodes the next record of the current chunk.
func (p *chunkParser) parseRecord(rec *record) error {
	tag := p.chunk[p.off]
	p.off++
	rec.kind = tag & 0x07
	rec.executed = tag&flagSkipped == 0
	var err error
	if rec.size, err = sizeFromBits(tag >> sizeShift); err != nil {
		return err
	}

	switch rec.kind {
	case recRead, recWrite, recCall, recReturn:
		var icd uint64
		if icd, err = p.uvarint(); err != nil {
			return err
		}
		rec.ic = p.prevIC + icd
		p.prevIC = rec.ic
		if rec.pc, err = p.delta(&p.prevPC); err != nil {
			return err
		}
		if rec.addr, err = p.delta(&p.prevAddr); err != nil {
			return err
		}
		if rec.sp, err = p.delta(&p.prevSP); err != nil {
			return err
		}
		if rec.kind == recCall || rec.kind == recReturn {
			if rec.target, err = p.delta(&p.prevTarget); err != nil {
				return err
			}
		}

	case recStatic:
		if tag != recStatic {
			return fmt.Errorf("etrace: malformed static tag %#x", tag)
		}
		if rec.pc, err = p.uvarint(); err != nil {
			return err
		}
		if p.off+isa.InstrSize > len(p.chunk) {
			return errors.New("etrace: truncated static record")
		}
		if rec.instr, err = isa.Decode(p.chunk[p.off : p.off+isa.InstrSize]); err != nil {
			return fmt.Errorf("etrace: static record at %#x: %w", rec.pc, err)
		}
		p.off += isa.InstrSize

	case recBlockDef:
		if tag != recBlockDef {
			return fmt.Errorf("etrace: malformed block-def tag %#x", tag)
		}
		if rec.start, err = p.uvarint(); err != nil {
			return err
		}
		n, err := p.uvarint()
		if err != nil {
			return err
		}
		if n == 0 || n > maxBlockInstrs {
			return fmt.Errorf("etrace: bad block length %d", n)
		}
		rec.ninstr = int(n)

	case recBlock:
		if tag != recBlock {
			return fmt.Errorf("etrace: malformed block tag %#x", tag)
		}
		var icd uint64
		if icd, err = p.uvarint(); err != nil {
			return err
		}
		rec.ic = p.prevIC + icd
		p.prevIC = rec.ic
		if rec.id, err = p.uvarint(); err != nil {
			return err
		}

	case recEnd:
		if tag != recEnd {
			return fmt.Errorf("etrace: malformed end tag %#x", tag)
		}
		if rec.ic, err = p.uvarint(); err != nil {
			return err
		}
		if rec.pc, err = p.uvarint(); err != nil {
			return err
		}
		var exit uint64
		if exit, err = p.uvarint(); err != nil {
			return err
		}
		rec.exitCode = unzigzag(exit)
		if p.off >= len(p.chunk) {
			return errors.New("etrace: truncated end record")
		}
		rec.halted = p.chunk[p.off]&1 != 0
		p.off++
		if p.off != len(p.chunk) {
			return errors.New("etrace: trailing bytes after end record")
		}

	default:
		return fmt.Errorf("etrace: unknown record tag %#x", tag)
	}
	return nil
}

func (p *chunkParser) uvarint() (uint64, error) {
	// Fast path: single-byte varints dominate (ic deltas and zigzagged
	// address deltas are almost always tiny) and inlining the one-byte
	// case avoids a slice header and a call on the decode hot path.
	if p.off < len(p.chunk) {
		if b := p.chunk[p.off]; b < 0x80 {
			p.off++
			return uint64(b), nil
		}
	}
	v, n := binary.Uvarint(p.chunk[p.off:])
	if n <= 0 {
		return 0, errors.New("etrace: truncated or malformed varint")
	}
	p.off += n
	return v, nil
}

func (p *chunkParser) delta(prev *uint64) (uint64, error) {
	u, err := p.uvarint()
	if err != nil {
		return 0, err
	}
	v := *prev + uint64(unzigzag(u))
	*prev = v
	return v, nil
}

// decoder streams records out of a chunked trace: a sequential refill
// loop over chunk frames feeding one chunkParser.  It walks the frames
// without consulting the index, which makes it Stat's engine; replay goes
// through the index (ParallelReplayer) and uses the decoder only for the
// header.
type decoder struct {
	r       *bufio.Reader
	p       chunkParser
	buf     []byte // chunk payload, capacity reused across refills
	version byte

	chunks int
	ended  bool

	// footer holds the trace's index when the stream carried one; nil
	// for footer-less v1 traces.  Populated once the end record has been
	// read and the trailing bytes validated.
	footer *Index
}

func newDecoder(r io.Reader) *decoder {
	return &decoder{r: bufio.NewReaderSize(r, 64<<10)}
}

// crcReader hashes exactly the bytes the header parse consumes from the
// buffered reader.  A tee below the bufio.Reader would hash read-ahead
// bytes past the header; consuming through this wrapper keeps the sum
// aligned with the parse position, so the header checksum can be checked
// the moment the stream crosses it.
type crcReader struct {
	r   *bufio.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	return n, err
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err != nil {
		return 0, err
	}
	one := [1]byte{b}
	c.crc = crc32.Update(c.crc, castagnoli, one[:])
	return b, nil
}

// readHeader parses and validates the preamble.  Header damage is always
// fatal — there is no salvaging a trace whose routine table cannot be
// trusted.
func (d *decoder) readHeader() (header, error) {
	var hdr header
	hr := &crcReader{r: d.r}
	pre := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(hr, pre); err != nil {
		return hdr, fmt.Errorf("etrace: short header: %w", err)
	}
	if string(pre[:len(magic)]) != magic {
		return hdr, fmt.Errorf("etrace: bad magic %q", pre[:len(magic)])
	}
	hdr.version = pre[len(magic)]
	if hdr.version < versionPlain || hdr.version > Version {
		return hdr, fmt.Errorf("etrace: unsupported version %d (want %d..%d)", hdr.version, versionPlain, Version)
	}
	var err error
	if hdr.stackBase, err = binary.ReadUvarint(hr); err != nil {
		return hdr, fmt.Errorf("etrace: header stack base: %w", err)
	}
	if hdr.workload, err = readString(hr, maxNameLen); err != nil {
		return hdr, fmt.Errorf("etrace: header workload: %w", err)
	}
	n, err := binary.ReadUvarint(hr)
	if err != nil {
		return hdr, fmt.Errorf("etrace: header routine count: %w", err)
	}
	if n > maxRoutines {
		return hdr, fmt.Errorf("etrace: routine count %d exceeds cap", n)
	}
	hdr.routines = make([]Routine, 0, n)
	for i := uint64(0); i < n; i++ {
		var rt Routine
		if rt.Name, err = readString(hr, maxNameLen); err != nil {
			return hdr, fmt.Errorf("etrace: routine %d name: %w", i, err)
		}
		if rt.Entry, err = binary.ReadUvarint(hr); err != nil {
			return hdr, fmt.Errorf("etrace: routine %d entry: %w", i, err)
		}
		if rt.End, err = binary.ReadUvarint(hr); err != nil {
			return hdr, fmt.Errorf("etrace: routine %d end: %w", i, err)
		}
		flags, err := hr.ReadByte()
		if err != nil {
			return hdr, fmt.Errorf("etrace: routine %d flags: %w", i, err)
		}
		if rt.End <= rt.Entry {
			return hdr, fmt.Errorf("etrace: routine %q has empty range [%#x,%#x)", rt.Name, rt.Entry, rt.End)
		}
		rt.Main = flags&1 != 0
		hdr.routines = append(hdr.routines, rt)
	}
	if !sort.SliceIsSorted(hdr.routines, func(i, j int) bool {
		return hdr.routines[i].Entry < hdr.routines[j].Entry
	}) {
		return hdr, errors.New("etrace: routine table not sorted by entry")
	}
	if hdr.version >= 2 {
		want := hr.crc // checksum of every header byte parsed above
		var sum [crcLen]byte
		if _, err := io.ReadFull(d.r, sum[:]); err != nil {
			return hdr, fmt.Errorf("etrace: header checksum: %w", err)
		}
		if binary.LittleEndian.Uint32(sum[:]) != want {
			return hdr, errors.New("etrace: header checksum mismatch")
		}
	}
	d.version = hdr.version
	return hdr, nil
}

// byteScanner is the reader shape the header parse needs: streaming reads
// plus the byte-at-a-time access binary.ReadUvarint wants.
type byteScanner interface {
	io.Reader
	io.ByteReader
}

func readString(r byteScanner, cap uint64) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > cap {
		return "", fmt.Errorf("string length %d exceeds cap", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// errTruncated marks a stream that stops before its end record.
var errTruncated = errors.New("etrace: truncated trace (no end record)")

// next returns the next record.  After the end record it returns io.EOF;
// a stream that runs dry without one fails with errTruncated.
func (d *decoder) next() (record, error) {
	var rec record
	if d.ended {
		return rec, io.EOF
	}
	for d.p.done() {
		n, err := binary.ReadUvarint(d.r)
		if err == io.EOF {
			return rec, errTruncated
		}
		if err != nil {
			return rec, fmt.Errorf("etrace: chunk length: %w", err)
		}
		if n == 0 || n > maxChunkLen || (d.version >= 2 && n <= crcLen) {
			return rec, fmt.Errorf("etrace: bad chunk length %d", n)
		}
		if uint64(cap(d.buf)) < n {
			d.buf = make([]byte, n)
		}
		d.buf = d.buf[:n]
		if _, err := io.ReadFull(d.r, d.buf); err != nil {
			return rec, fmt.Errorf("etrace: short chunk: %w", err)
		}
		d.chunks++
		payload := d.buf
		if d.version >= 2 {
			body, sum := payload[:len(payload)-crcLen], payload[len(payload)-crcLen:]
			if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(sum) {
				return rec, fmt.Errorf("etrace: chunk %d checksum mismatch", d.chunks-1)
			}
			payload = body
		}
		d.p.reset(payload)
	}
	if err := d.p.parseRecord(&rec); err != nil {
		return rec, err
	}
	if rec.kind == recEnd {
		if err := d.readTrailing(); err != nil {
			return rec, err
		}
		d.ended = true
	}
	return rec, nil
}

// readTrailing validates whatever follows the final chunk: nothing (a
// footer-less v1 trace) or a well-formed index footer whose chunk table
// matches what was just decoded.  Anything else is an error — trailing
// garbage must not pass for a clean trace.
func (d *decoder) readTrailing() error {
	if _, err := d.r.Peek(1); err != nil {
		if err == io.EOF {
			return nil
		}
		return fmt.Errorf("etrace: read after final chunk: %w", err)
	}
	b, err := io.ReadAll(io.LimitReader(d.r, maxFooterLen+trailerLen+1))
	if err != nil {
		return fmt.Errorf("etrace: read after final chunk: %w", err)
	}
	if len(b) > maxFooterLen+trailerLen {
		return errors.New("etrace: data after final chunk (oversized index footer)")
	}
	chunks, err := parseFooter(b)
	if err != nil {
		return fmt.Errorf("etrace: data after final chunk (%s)", err)
	}
	if len(chunks) != d.chunks {
		return fmt.Errorf("etrace: index lists %d chunks, stream had %d", len(chunks), d.chunks)
	}
	d.footer = &Index{Chunks: chunks, FromFooter: true}
	return nil
}

// site is one compiled static instruction during replay.
type site struct {
	instr isa.Instr
	ins   *pin.INS // nil when no analysis calls were attached
}

// denseSiteSpan caps how wide a routine-table pc range may be before the
// consumer falls back to a pure map code cache (a dense array over a
// sparse terabyte range would be worse than the map it replaces).
const denseSiteSpan = 1 << 22 // instructions

// Consumer is one pin.Host fed from a replayed record stream.  It holds
// everything per-tool-stack: the instrumentation callbacks, the code
// cache of compiled sites, and the replayed machine state (instruction
// count, memory counters, exit status).  A ParallelReplayer fans one
// decode pass out to any number of consumers.
type Consumer struct {
	hdr header

	mainImg *image.Image
	libImg  *image.Image

	insCallbacks  []pin.InstrumentFunc
	symbolsInited bool

	// Code cache: a dense array over the routine table's pc span when
	// that span is modest (the per-event site lookup is replay's hottest
	// load), with a map fallback for wide spans and out-of-range pcs.
	sites    map[uint64]*site
	siteArr  []*site
	siteBase uint64
	siteSpan uint64 // bytes covered by siteArr

	blocks  []blockDef
	blockFn func(start uint64, ninstr int, ic uint64)

	ic       uint64
	overhead uint64
	pc       uint64
	memStats vm.MemStats
	exitCode int64
	halted   bool

	// Scratch event for analysis dispatch: pin.Context carries its
	// dynamic facts behind an embedded *vm.Event, so the consumer keeps
	// one event alive across the whole stream instead of allocating per
	// record.
	ev   vm.Event
	ectx pin.Context

	// salvage is non-nil when this consumer replays in salvage mode; the
	// report tallies what the damaged trace lost.  Each consumer owns its
	// report (parallel replay merges chunk-level stats in afterwards), so
	// no synchronisation is needed on the apply path.
	salvage *SalvageReport

	// err is the consumer's replay outcome (see Err), set once the pass
	// has finished.
	err error

	// Stats mirrors pin.Engine.Stats for the replayed run.
	Stats pin.Stats
}

type blockDef struct {
	start  uint64
	ninstr int
}

var _ pin.Host = (*Consumer)(nil)

// newConsumer builds an empty consumer over a decoded header.
func newConsumer(hdr header) *Consumer {
	c := &Consumer{
		hdr: hdr,
		// Placeholder images: routine resolution during replay needs only
		// the main-versus-library distinction, carried per routine in the
		// header.
		mainImg: &image.Image{Kind: image.Main},
		libImg:  &image.Image{Kind: image.Library},
		sites:   make(map[uint64]*site),
	}
	c.ectx.Event = &c.ev
	if rts := hdr.routines; len(rts) > 0 {
		lo := rts[0].Entry // sorted by entry
		hi := lo
		for _, rt := range rts {
			if rt.End > hi {
				hi = rt.End
			}
		}
		if span := hi - lo; span/isa.InstrSize <= denseSiteSpan {
			c.siteArr = make([]*site, span/isa.InstrSize)
			c.siteBase = lo
			c.siteSpan = span
		}
	}
	return c
}

// site returns the compiled site for pc, or nil.
func (c *Consumer) site(pc uint64) *site {
	if off := pc - c.siteBase; off < c.siteSpan && off%isa.InstrSize == 0 {
		return c.siteArr[off/isa.InstrSize]
	}
	return c.sites[pc]
}

// setSite installs a compiled site.
func (c *Consumer) setSite(pc uint64, st *site) {
	if off := pc - c.siteBase; off < c.siteSpan && off%isa.InstrSize == 0 {
		c.siteArr[off/isa.InstrSize] = st
		return
	}
	c.sites[pc] = st
}

// Workload returns the header's workload label.
func (c *Consumer) Workload() string { return c.hdr.workload }

// StackBase returns the recorded top-of-stack address.
func (c *Consumer) StackBase() uint64 { return c.hdr.stackBase }

// InitSymbols implements pin.Host.
func (c *Consumer) InitSymbols() { c.symbolsInited = true }

// INSAddInstrumentFunction implements pin.Host.
func (c *Consumer) INSAddInstrumentFunction(fn pin.InstrumentFunc) {
	c.insCallbacks = append(c.insCallbacks, fn)
}

// RTNFindByAddress implements pin.Host over the interned routine table.
func (c *Consumer) RTNFindByAddress(pc uint64) (*pin.RTN, bool) {
	rts := c.hdr.routines
	i := sort.Search(len(rts), func(i int) bool { return rts[i].End > pc })
	if i == len(rts) || pc < rts[i].Entry {
		return nil, false
	}
	rt := rts[i]
	img := c.libImg
	if rt.Main {
		img = c.mainImg
	}
	rtn := &pin.RTN{
		Routine: image.Routine{Name: rt.Name, Entry: rt.Entry, End: rt.End},
		Image:   img,
	}
	if !c.symbolsInited {
		rtn.Routine.Name = fmt.Sprintf("sub_%x", rt.Entry)
	}
	return rtn, true
}

// ICount implements pin.Host: guest instructions replayed so far.
func (c *Consumer) ICount() uint64 { return c.ic }

// Time implements pin.Host: replayed instructions plus charged overhead.
func (c *Consumer) Time() uint64 { return c.ic + c.overhead }

// CurrentPC implements pin.Host: the pc of the latest replayed event
// (after the replay, the recorded final pc).
func (c *Consumer) CurrentPC() uint64 { return c.pc }

// ChargeOverhead implements pin.Host.
func (c *Consumer) ChargeOverhead(n uint64) { c.overhead += n }

// IsStackAddr implements pin.Host using the recorded stack base.
func (c *Consumer) IsStackAddr(addr, sp uint64) bool {
	return addr >= sp && addr < c.hdr.stackBase
}

// Overhead returns the total analysis cost charged during replay.
func (c *Consumer) Overhead() uint64 { return c.overhead }

// ExitCode returns the recorded guest exit code (valid after replay).
func (c *Consumer) ExitCode() int64 { return c.exitCode }

// Halted reports whether the recorded run halted cleanly.
func (c *Consumer) Halted() bool { return c.halted }

// MemStats returns the replayed memory-reference counters; they match
// the recording machine's own MemStats.
func (c *Consumer) MemStats() vm.MemStats { return c.memStats }

// Traffic returns total bytes read and written (prefetches excluded).
func (c *Consumer) Traffic() (readBytes, writeBytes uint64) {
	return c.memStats.ReadBytes(), c.memStats.WriteBytes()
}

// OnBlock registers a callback for basic-block execution records (traces
// recorded with RecordOptions.Blocks).
func (c *Consumer) OnBlock(fn func(start uint64, ninstr int, ic uint64)) { c.blockFn = fn }

// apply advances the consumer by one record: static records compile
// through the registered instrumentation callbacks, dynamic records
// dispatch to the attached analysis routines.
func (c *Consumer) apply(rec *record) error {
	switch rec.kind {
	case recStatic:
		if c.site(rec.pc) != nil {
			return fmt.Errorf("etrace: duplicate static record for pc %#x", rec.pc)
		}
		st := &site{instr: rec.instr}
		ins := &pin.INS{PC: rec.pc, Instr: rec.instr}
		for _, cb := range c.insCallbacks {
			cb(ins)
		}
		if ins.HasCalls() {
			st.ins = ins
			c.Stats.StaticInstrumented++
		}
		c.setSite(rec.pc, st)

	case recRead, recWrite, recCall, recReturn:
		st := c.site(rec.pc)
		if st == nil {
			return fmt.Errorf("etrace: event at pc %#x with no static record", rec.pc)
		}
		c.ic = rec.ic
		c.pc = rec.pc
		if rec.executed {
			c.countAccess(rec, st)
		}
		if st.ins == nil {
			return nil
		}
		c.ev = vm.Event{
			Kind:     eventKind(rec.kind),
			PC:       rec.pc,
			Addr:     rec.addr,
			Size:     rec.size,
			Target:   rec.target,
			SP:       rec.sp,
			Executed: rec.executed,
		}
		c.ectx.Prefetch = st.instr.IsPrefetch()
		fired, suppressed := st.ins.Dispatch(&c.ectx)
		c.Stats.AnalysisCalls += fired
		c.Stats.SuppressedCalls += suppressed

	case recBlockDef:
		if len(c.blocks) >= maxBlockDefs {
			return errors.New("etrace: block definition count exceeds cap")
		}
		c.blocks = append(c.blocks, blockDef{start: rec.start, ninstr: rec.ninstr})

	case recBlock:
		if rec.id >= uint64(len(c.blocks)) {
			return fmt.Errorf("etrace: block event with undefined id %d", rec.id)
		}
		c.ic = rec.ic
		if c.blockFn != nil {
			b := c.blocks[rec.id]
			c.blockFn(b.start, b.ninstr, rec.ic)
		}

	case recEnd:
		if rec.ic < c.ic {
			return fmt.Errorf("etrace: end record rewinds the clock (%d < %d)", rec.ic, c.ic)
		}
		c.ic = rec.ic
		c.pc = rec.pc
		c.exitCode = rec.exitCode
		c.halted = rec.halted
	}
	return nil
}

// countAccess replicates the machine's MemStats accounting for one
// executed event (loads and stores only; the vm does not count the
// implicit stack traffic of calls and returns).
func (c *Consumer) countAccess(rec *record, st *site) {
	switch rec.kind {
	case recRead:
		if st.instr.IsPrefetch() {
			c.memStats.Prefetches++
		} else if cls := classOf(rec.size); cls >= 0 {
			c.memStats.ReadOps[cls]++
		}
	case recWrite:
		if cls := classOf(rec.size); cls >= 0 {
			c.memStats.WriteOps[cls]++
		}
	}
}

// PublishMetrics exports the replayed run's counters under the same
// metric names a live run publishes (vm.Machine.PublishMetrics plus
// pin.Engine.PublishMetrics), so merged registries are comparable across
// live and replayed sweeps.  The pin family is published only when
// instrumentation was attached, matching a live native run's registry.
// A nil registry is a no-op.
func (c *Consumer) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("tquad_vm_instructions_total").Add(c.ic)
	reg.Counter("tquad_vm_overhead_instr_total").Add(c.overhead)
	reg.Counter("tquad_vm_prefetch_skipped_total").Add(c.memStats.Prefetches)
	reg.Counter("tquad_vm_mem_read_bytes_total").Add(c.memStats.ReadBytes())
	reg.Counter("tquad_vm_mem_write_bytes_total").Add(c.memStats.WriteBytes())
	for i, size := range vm.MemSizeClasses {
		label := fmt.Sprintf("%d", size)
		if n := c.memStats.ReadOps[i]; n > 0 {
			reg.Counter(obs.Label("tquad_vm_mem_reads_total", "size", label)).Add(n)
		}
		if n := c.memStats.WriteOps[i]; n > 0 {
			reg.Counter(obs.Label("tquad_vm_mem_writes_total", "size", label)).Add(n)
		}
	}
	if len(c.insCallbacks) > 0 {
		reg.Counter("tquad_pin_static_instrumented_total").Add(c.Stats.StaticInstrumented)
		reg.Counter("tquad_pin_analysis_calls_total").Add(c.Stats.AnalysisCalls)
		reg.Counter("tquad_pin_suppressed_calls_total").Add(c.Stats.SuppressedCalls)
	}
	if c.salvage != nil {
		reg.Counter(obs.MetricEtraceCRCErrors).Add(uint64(c.salvage.CRCErrors))
		reg.Counter(obs.MetricEtraceChunksSalvaged).Add(uint64(c.salvage.ChunksBad))
	}
}

// SalvageReport returns the damage tally of a salvage replay, or nil when
// the consumer replays strictly.  Complete only after the replay.
func (c *Consumer) SalvageReport() *SalvageReport { return c.salvage }

// Err reports how this consumer's replay ended: nil when it applied the
// whole stream, a *PanicError when one of its own analysis routines
// panicked, and otherwise the pass's failure (trace damage or
// cancellation), which every consumer without a panic of its own shares.
// Valid once Replay has returned.
func (c *Consumer) Err() error { return c.err }

func classOf(size int) int {
	for i, s := range vm.MemSizeClasses {
		if s == size {
			return i
		}
	}
	return -1
}

func eventKind(kind byte) vm.EventKind {
	switch kind {
	case recWrite:
		return vm.EvWrite
	case recCall:
		return vm.EvCall
	case recReturn:
		return vm.EvReturn
	}
	return vm.EvRead
}
