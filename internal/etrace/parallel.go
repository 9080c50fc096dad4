package etrace

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"tquad/internal/vm"
)

// ParallelOptions configure a ParallelReplayer.
type ParallelOptions struct {
	// Jobs is the decode worker count; 0 means GOMAXPROCS, 1 decodes
	// inline with no worker pool.
	Jobs int

	// Salvage switches the replay from fail-closed to fail-soft: damaged
	// chunks are skipped precisely (the index locates every healthy chunk
	// even past framing damage, and delta chains reset per chunk so loss
	// never cascades) and the gap is tallied in each consumer's
	// SalvageReport.  Header damage remains fatal.
	Salvage bool
}

// ParallelReplayer drives profiling tools from a recorded event trace:
// it replays the trace through any number of consumers in a single pass,
// decoding chunks concurrently.  Each Consumer implements pin.Host, so
// the tools' Attach functions run against it unchanged: their
// instrumentation callbacks fire when static records stream in (the
// code-cache fill) and their analysis routines fire per dynamic record —
// no vm.Machine is ever constructed.
//
// The division of labour: chunk *decode* (varint parsing, delta
// reconstruction) parallelises freely because every delta chain resets
// at a chunk boundary; decoded chunks are re-sequenced into file order
// and fanned out to the consumers, each applying the stream on its own
// goroutine.  Every consumer therefore observes the records in file
// order whatever the worker count — replay at any Jobs is byte-identical
// by construction, asserted by the golden and differential tests — while
// N tool stacks profile one decode pass concurrently instead of replaying
// the trace N times.
//
// Memory stays bounded: the ordered-promise window holds at most ~2x
// the worker count of decoded chunks, each recycled through a pool once
// every consumer is done with it.
type ParallelReplayer struct {
	*traceFile
	jobs int

	// report collects the decode-side (chunk-level) damage tally of a
	// salvage replay on the coordinator goroutine; consumers get it merged
	// into their own reports after the apply goroutines finish.
	report *SalvageReport

	consumers []*Consumer
	progress  func(ic uint64)
	done      bool
}

// NewParallelReplayer opens a recorded trace for indexed replay.  The
// trace's index footer is used when it is valid and starts at the header
// end; footer-less traces get a chunk table rebuilt by a frame scan.  A
// strict replay fails closed on a footer that is present but unusable and
// on framing damage; a salvage replay rebuilds the table by the frame
// scan and counts the damage.  Header damage fails both.
func NewParallelReplayer(ra io.ReaderAt, size int64, opts ParallelOptions) (*ParallelReplayer, error) {
	t, err := openTrace(ra, size)
	if err != nil {
		return nil, corrupt(err) // header damage: unreadable, not salvageable
	}
	p := &ParallelReplayer{traceFile: t, jobs: opts.Jobs}
	if opts.Salvage {
		t.salvage = true
		// A missing footer is no damage by itself: a tail lost with it
		// shows as a torn tail or a missing end record, as in Stat.
		p.report = &SalvageReport{TornTail: t.lost > 0, FooterDamaged: t.footerErr != nil}
	} else if t.footerErr != nil {
		return nil, corrupt(t.footerErr)
	} else if t.scanErr != nil {
		return nil, corrupt(t.scanErr)
	}
	if len(t.index.Chunks) == 0 {
		return nil, corrupt(errTruncated)
	}
	if p.jobs <= 0 {
		p.jobs = runtime.GOMAXPROCS(0)
	}
	return p, nil
}

// NewConsumer adds one pin.Host to the fan-out and returns it.  Attach a
// tool stack to each consumer, then call Replay once.
func (p *ParallelReplayer) NewConsumer() *Consumer {
	c := newConsumer(p.hdr)
	if p.salvage {
		c.salvage = new(SalvageReport)
	}
	p.consumers = append(p.consumers, c)
	return c
}

// OnProgress registers a heartbeat callback invoked with the replayed
// instruction count of the first consumer once per applied chunk — off
// the per-record hot path, and free when no callback is registered.
func (p *ParallelReplayer) OnProgress(fn func(ic uint64)) { p.progress = fn }

// Replay runs the single decode pass, feeding every record to every
// consumer in file order.  It may be called once.
func (p *ParallelReplayer) Replay() error { return p.ReplayContext(context.Background()) }

// decodedChunk is one chunk's decode result: its records, or the error
// that stopped the decode (with the records parsed before it).  The
// slice pointer carries pool ownership.  In salvage mode errors are
// absorbed into the damage flags instead: bad marks a chunk that lost
// records, crcErr a failed payload checksum, torn unreachable bytes,
// footerBad an index hint the (checksum-verified) bytes contradict.
type decodedChunk struct {
	recs *[]record
	err  error

	ref       ChunkRef
	bad       bool
	crcErr    bool
	torn      bool
	footerBad bool
	hasEnd    bool
}

// decode runs decodeChunk over one index entry, absorbing failures into
// damage flags when salvaging.
func (p *ParallelReplayer) decode(ref ChunkRef, last bool) decodedChunk {
	buf := recPool.Get().(*[]record)
	dc := decodedChunk{recs: buf, ref: ref}
	*buf, dc.err = p.decodeChunk(ref, last, (*buf)[:0], &dc)
	if dc.err != nil && p.salvage {
		dc.bad, dc.err = true, nil
	}
	return dc
}

// recPool recycles per-chunk record slices across the replay window.
var recPool = sync.Pool{New: func() any { return new([]record) }}

// framePool recycles chunk frame buffers (length prefix + payload).
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// chunkShare is one decoded chunk in flight to several consumers; the
// last consumer to finish returns the records to the pool.
type chunkShare struct {
	recs *[]record
	refs atomic.Int32
}

func (s *chunkShare) release() {
	if s.refs.Add(-1) == 0 {
		recPool.Put(s.recs)
	}
}

// PanicError is a panic raised by one consumer's analysis routines during
// a replay, recovered so that the pass and the other consumers carry on.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("etrace: analysis routine panic: %v\n%s", e.Value, e.Stack)
}

// ReplayContext is Replay under a context: a cancelled context stops the
// replay with a *vm.CancelError carrying the (first consumer's)
// instruction count at the interruption point.  It returns the pass's
// failure if there is one, else the first consumer's own panic; each
// consumer's outcome is also available from its Err.
func (p *ParallelReplayer) ReplayContext(ctx context.Context) error {
	if p.done {
		return errors.New("etrace: trace already replayed")
	}
	p.done = true
	if len(p.consumers) == 0 {
		p.NewConsumer()
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Decode side: an ordered stream of decoded chunks.
	out := make(chan decodedChunk, p.jobs)
	if p.jobs <= 1 {
		go p.produceSequential(cctx, out)
	} else {
		go p.produceParallel(cctx, out)
	}

	// Apply side: one goroutine per consumer, each walking the shared
	// record stream in order.  The first consumer doubles as the
	// progress heartbeat source.
	chans := make([]chan *chunkShare, len(p.consumers))
	var wg sync.WaitGroup
	for i, c := range p.consumers {
		ch := make(chan *chunkShare, 2)
		chans[i] = ch
		wg.Add(1)
		go func(lead bool) {
			defer wg.Done()
			c.err = p.applyLoop(ctx, cancel, c, lead, ch)
		}(i == 0)
	}

	// Coordinator: fan each ordered chunk out to every consumer.  A
	// chunk that decoded with an error still fans out first — consumers
	// must apply the records preceding the failure, so the replay stops
	// exactly at the damage.  In salvage mode decode damage arrives as
	// flags instead of errors: the coordinator tallies it (single
	// goroutine, no races) and the fan-out continues past the damage.
	var decodeErr error
	dispatched := 0
fanout:
	for d := range out {
		if p.salvage {
			p.report.ChunksTotal++
			if d.crcErr {
				p.report.CRCErrors++
			}
			if d.bad {
				p.report.ChunksBad++
				if p.index.FromFooter {
					if applied := uint64(len(*d.recs)); d.ref.Records > applied {
						p.report.RecordsLost += d.ref.Records - applied
					}
					p.report.ICountLost += d.ref.EndIC - d.ref.StartIC
				}
			}
			if d.torn {
				p.report.TornTail = true
			}
			if d.footerBad {
				p.report.FooterDamaged = true
			}
			if d.hasEnd {
				p.report.Complete = true
			}
		}
		share := &chunkShare{recs: d.recs}
		share.refs.Store(int32(len(chans)))
		for _, ch := range chans {
			select {
			case ch <- share:
			case <-cctx.Done():
				share.release() // stand in for the consumers not reached
				break fanout
			}
		}
		dispatched++
		if d.err != nil {
			decodeErr = d.err
			break
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	cancel()
	// Drain any chunks the producer emitted after the fan-out stopped.
	for d := range out {
		recPool.Put(d.recs)
	}
	if p.salvage {
		// Hand every consumer the chunk-level tally; apply goroutines are
		// done, so the merge is race-free.
		for _, c := range p.consumers {
			c.salvage.merge(p.report)
		}
	}

	// The pass's failure, by precedence: a consumer's stream-order
	// failure (every consumer sees the same records, so it is the
	// trace's, not the consumer's), then the decode failure, then
	// cancellation.  A panic belongs to its consumer alone.
	var passErr error
	for _, c := range p.consumers {
		if _, panicked := c.err.(*PanicError); c.err != nil && !panicked {
			passErr = c.err
			break
		}
	}
	if passErr == nil && decodeErr != nil {
		passErr = corrupt(decodeErr)
	}
	if passErr == nil && dispatched != len(p.index.Chunks) {
		c := p.consumers[0]
		passErr = &vm.CancelError{PC: c.pc, ICount: c.ic, Cause: context.Cause(cctx)}
	}
	for _, c := range p.consumers {
		if c.err == nil {
			c.err = passErr
		}
	}
	if passErr != nil {
		return passErr
	}
	for _, c := range p.consumers {
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

// applyLoop drives one consumer over the ordered chunk stream; the lead
// consumer also fires the progress heartbeat.  Cancellation is polled
// once per chunk, not per record: a chunk is bounded (maxChunkLen) and
// applies in microseconds, so chunk granularity keeps the hot loop free
// of per-record bookkeeping without hurting responsiveness.  A consumer
// that fails stops applying but keeps releasing its chunk shares; only a
// failure of the stream itself stops the pass.
func (p *ParallelReplayer) applyLoop(ctx context.Context, cancel context.CancelFunc, c *Consumer, lead bool, ch <-chan *chunkShare) error {
	done := ctx.Done()
	progress := p.progress
	if !lead {
		progress = nil
	}
	var failed error
	for share := range ch {
		if failed == nil {
			select {
			case <-done:
				failed = &vm.CancelError{PC: c.pc, ICount: c.ic, Cause: ctx.Err()}
			default:
				failed = c.applyChunk(*share.recs)
				if failed == nil && progress != nil {
					progress(c.ic)
				}
			}
			if _, panicked := failed.(*PanicError); failed != nil && !panicked {
				cancel() // stop the producer and the other consumers
			}
		}
		share.release()
	}
	return failed
}

// applyChunk applies one decoded chunk's records.  A panic in the
// consumer's analysis routines is recovered into a *PanicError.
func (c *Consumer) applyChunk(recs []record) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	for i := range recs {
		if err := c.apply(&recs[i]); err != nil {
			if c.salvage != nil {
				// Fallout of a skipped chunk (an event before its
				// static record): drop and count, don't fail the pass.
				c.salvage.RecordsDropped++
				continue
			}
			return corrupt(err)
		}
	}
	return nil
}

// produceSequential decodes chunks inline, in order — the jobs<=1 path.
func (p *ParallelReplayer) produceSequential(ctx context.Context, out chan<- decodedChunk) {
	defer close(out)
	last := len(p.index.Chunks) - 1
	for i, ref := range p.index.Chunks {
		d := p.decode(ref, i == last)
		select {
		case out <- d:
		case <-ctx.Done():
			recPool.Put(d.recs)
			return
		}
		if d.err != nil {
			return
		}
	}
}

// produceParallel decodes chunks across a worker pool, re-sequencing via
// an ordered promise queue: the feeder emits one promise per chunk in
// file order, workers fulfil promises as they finish, and the forwarding
// loop drains promises in emission order — so the output stream is in
// file order no matter how decode completion interleaves.
func (p *ParallelReplayer) produceParallel(ctx context.Context, out chan<- decodedChunk) {
	defer close(out)
	ictx, icancel := context.WithCancel(ctx)
	defer icancel()

	type job struct {
		ref     ChunkRef
		last    bool
		promise chan decodedChunk
	}
	// The promise queue bounds memory: at most ~2*jobs decoded chunks
	// exist before the forwarding loop drains one.
	promises := make(chan chan decodedChunk, p.jobs*2)
	work := make(chan job)

	go func() {
		defer close(promises)
		defer close(work)
		last := len(p.index.Chunks) - 1
		for i, ref := range p.index.Chunks {
			// Buffered so a worker never blocks fulfilling it.
			promise := make(chan decodedChunk, 1)
			select {
			case promises <- promise:
			case <-ictx.Done():
				return
			}
			select {
			case work <- job{ref: ref, last: i == last, promise: promise}:
			case <-ictx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < p.jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				d := p.decode(j.ref, j.last)
				j.promise <- d
				if d.err != nil {
					icancel() // later chunks are unreachable; stop decoding
				}
			}
		}()
	}
	defer wg.Wait()

	for promise := range promises {
		var d decodedChunk
		select {
		case d = <-promise:
		case <-ctx.Done():
			return
		}
		select {
		case out <- d:
		case <-ctx.Done():
			recPool.Put(d.recs)
			return
		}
		if d.err != nil {
			return
		}
	}
}

// decodeChunk reads and decodes one chunk identified by its index entry,
// appending its records to recs: the one chunk decoder, behind both replay
// and Stat.  The index is never trusted over the bytes: the chunk's own
// length prefix must agree with the entry, the payload checksum must
// verify (version >= 2), an end record may close only the final chunk,
// and a footer entry's record count must match what actually decoded.  In
// salvage mode (t.salvage) each of those failures is absorbed into dc's
// damage flags — keeping exactly the records that are provably sound —
// instead of returning an error.  A final chunk that decodes cleanly but
// holds no end record fails with errTruncated.
func (t *traceFile) decodeChunk(ref ChunkRef, last bool, recs []record, dc *decodedChunk) ([]record, error) {
	frameBuf := framePool.Get().(*[]byte)
	defer framePool.Put(frameBuf)
	frame := *frameBuf
	need := int(ref.frameLen())
	if cap(frame) < need {
		frame = make([]byte, need)
		*frameBuf = frame
	}
	frame = frame[:need]
	if _, err := t.ra.ReadAt(frame, ref.Offset); err != nil {
		if t.salvage {
			// A short read under a footer index is a truncated file: the
			// tail chunks the index promises are simply gone.
			dc.bad, dc.torn = true, true
			return recs, nil
		}
		return recs, fmt.Errorf("etrace: read chunk at %d: %w", ref.Offset, err)
	}
	size, n := binary.Uvarint(frame)
	if n <= 0 || int64(size) != ref.Size || n != uvarintLen(size) {
		if t.salvage {
			dc.bad = true
			return recs, nil
		}
		return recs, errors.New("etrace: index disagrees with chunk boundaries")
	}
	payload := frame[n:]
	checksummed := t.hdr.version >= 2
	if checksummed {
		if len(payload) <= crcLen {
			if t.salvage {
				dc.bad = true
				return recs, nil
			}
			return recs, errors.New("etrace: chunk too short for checksum")
		}
		body, sum := payload[:len(payload)-crcLen], payload[len(payload)-crcLen:]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(sum) {
			if t.salvage {
				dc.bad, dc.crcErr = true, true
				return recs, nil
			}
			return recs, fmt.Errorf("etrace: chunk at %d checksum mismatch", ref.Offset)
		}
		payload = body
	}
	var cp chunkParser
	cp.reset(payload)
	base := len(recs)
	for !cp.done() {
		// Parse into the appended slot: pooled slices carry stale
		// records, and parseRecord only writes kind-relevant fields, so
		// the slot must be zeroed — but appending a zero value and
		// decoding in place still saves a per-record struct copy.
		recs = append(recs, record{})
		rec := &recs[len(recs)-1]
		if err := cp.parseRecord(rec); err != nil {
			if t.salvage {
				// Keep the sound prefix, drop the half-written slot.
				recs = recs[:len(recs)-1]
				dc.bad = true
				return recs, nil
			}
			return recs, err
		}
		if rec.kind == recEnd && !last {
			if t.salvage {
				recs = recs[:len(recs)-1]
				dc.bad = true
				return recs, nil
			}
			return recs, errors.New("etrace: data after final chunk (end record mid-trace)")
		}
	}
	if t.index.FromFooter && ref.Records != uint64(len(recs)-base) {
		if t.salvage {
			if checksummed {
				// The payload checksum held, so the bytes win over the
				// index hint: keep the records, flag the footer.
				dc.footerBad = true
			} else {
				// Unchecksummed, and the two sources disagree: neither can
				// be trusted, so count the chunk as lost.
				recs = recs[:base]
				dc.bad = true
				return recs, nil
			}
		} else {
			return recs, fmt.Errorf("etrace: index lists %d records, chunk decoded %d", ref.Records, len(recs)-base)
		}
	}
	if len(recs) > base && recs[len(recs)-1].kind == recEnd {
		dc.hasEnd = true
	}
	if last && !dc.hasEnd {
		if t.salvage {
			dc.torn = true
			return recs, nil
		}
		return recs, errTruncated
	}
	return recs, nil
}
