package etrace

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"tquad/internal/isa"
	"tquad/internal/pin"
	"tquad/internal/vm"
)

// synthTrace hand-assembles a valid indexed trace of nchunks chunks of
// read events on one static load — small enough to corrupt surgically,
// real enough to replay.
func synthTrace(t *testing.T, nchunks int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := newWriter(&buf, header{stackBase: 0x40000, workload: "synth"})
	w.static(0x1000, isa.Instr{Op: isa.OpLd8, Rd: 1, Rs1: 2})
	ctx := &pin.Context{Event: &vm.Event{PC: 0x1000, Size: 8, Executed: true}}
	ic := uint64(0)
	for c := 0; c < nchunks-1; c++ {
		for i := 0; i < 8; i++ {
			ic += 4
			ctx.Addr = 0x2000 + ic
			w.event(recRead, ic, ctx)
		}
		w.flush()
	}
	ic += 4
	if err := w.end(ic, 0x2000, 0, true); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withRecord returns a checksummed, indexed trace whose first chunk
// holds a static load, one read event at it and then the raw bytes,
// and whose second chunk holds the end record.  The writer checksums
// the raw bytes with the rest of their chunk, so decode reaches their
// tag.
func withRecord(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := newWriter(&buf, header{stackBase: 0x40000, workload: "hostile"})
	w.static(0x1000, isa.Instr{Op: isa.OpLd8, Rd: 1, Rs1: 2})
	w.event(recRead, 1, &pin.Context{Event: &vm.Event{PC: 0x1000, Size: 8, Executed: true}})
	w.buf = append(w.buf, raw...)
	w.chunkRecords++
	w.flush()
	if err := w.end(2, 0x1008, 0, true); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFooterRoundTrip(t *testing.T) {
	data := synthTrace(t, 4)
	idx, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if idx == nil || !idx.FromFooter {
		t.Fatal("indexed trace did not yield a footer index")
	}
	if len(idx.Chunks) != 4 {
		t.Fatalf("footer lists %d chunks, wrote 4", len(idx.Chunks))
	}
	for i, c := range idx.Chunks {
		if c.Records == 0 {
			t.Errorf("chunk %d: footer carries no record-count hint", i)
		}
	}
	// A frame scan over the same region must agree on every boundary.
	scanned, lost, err := scanFrames(bytes.NewReader(data), idx.Chunks[0].Offset, idx.DataEnd)
	if err != nil || lost != 0 {
		t.Fatalf("scan of an intact chunk region: %v, %d bytes lost", err, lost)
	}
	if len(scanned.Chunks) != len(idx.Chunks) {
		t.Fatalf("scan found %d chunks, footer %d", len(scanned.Chunks), len(idx.Chunks))
	}
	for i := range scanned.Chunks {
		if scanned.Chunks[i].Offset != idx.Chunks[i].Offset || scanned.Chunks[i].Size != idx.Chunks[i].Size {
			t.Errorf("chunk %d: scan %+v, footer %+v", i, scanned.Chunks[i], idx.Chunks[i])
		}
	}
}

// TestReadIndexFailsClosed: a footer that is present but damaged must be
// an error — never a silent fallback, never a panic.  Only the complete
// absence of the trailer magic means "v1 trace, no footer".
func TestReadIndexFailsClosed(t *testing.T) {
	// Baseline: 100 bytes of pretend chunk data covered by one entry
	// ending exactly at the footer ([1, 1+1+98) with a 1-byte prefix).
	base := []ChunkRef{{Offset: 1, Size: 98, Records: 5, Events: 3, StartIC: 1, EndIC: 9}}
	blob := func(chunks []ChunkRef, mutate func([]byte) []byte) []byte {
		b := append(make([]byte, 100), appendFooter(nil, chunks, indexVersion)...)
		if mutate != nil {
			b = mutate(b)
		}
		return b
	}
	if idx, err := ReadIndex(bytes.NewReader(blob(base, nil)), 100+int64(len(appendFooter(nil, base, indexVersion)))); err != nil || idx == nil {
		t.Fatalf("baseline footer did not parse: %v", err)
	}

	cases := map[string][]byte{
		"length field too large": blob(base, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(b)-trailerLen:], uint32(len(b))) // claims past file start
			return b
		}),
		"length field off by one": blob(base, func(b []byte) []byte {
			n := binary.LittleEndian.Uint32(b[len(b)-trailerLen:])
			binary.LittleEndian.PutUint32(b[len(b)-trailerLen:], n-1)
			return b
		}),
		"payload magic corrupt": blob(base, func(b []byte) []byte {
			b[len(b)-trailerLen-int64ToInt(int64(binary.LittleEndian.Uint32(b[len(b)-trailerLen:])))] ^= 0xff
			return b
		}),
		"future index version": blob(base, func(b []byte) []byte {
			start := len(b) - trailerLen - int64ToInt(int64(binary.LittleEndian.Uint32(b[len(b)-trailerLen:])))
			b[start+len(indexMagic)] = indexVersionCRC + 1
			return b
		}),
		"crc version without checksum": blob(base, func(b []byte) []byte {
			// Claiming the checksummed revision on a v1-shaped payload must
			// fail the checksum, never parse the entry bytes as a CRC.
			start := len(b) - trailerLen - int64ToInt(int64(binary.LittleEndian.Uint32(b[len(b)-trailerLen:])))
			b[start+len(indexMagic)] = indexVersionCRC
			return b
		}),
		"zero entries":       blob(nil, nil),
		"records hint zero":  blob([]ChunkRef{{Offset: 1, Size: 98}}, nil),
		"events exceed recs": blob([]ChunkRef{{Offset: 1, Size: 98, Records: 1, Events: 2}}, nil),
		"ic span inverted":   blob([]ChunkRef{{Offset: 1, Size: 98, Records: 1, StartIC: 9, EndIC: 1}}, nil),
		"entries not contiguous": blob([]ChunkRef{
			{Offset: 1, Size: 40, Records: 1},
			{Offset: 50, Size: 49, Records: 1}, // 1+1+40 = 42, not 50
		}, nil),
		"last chunk misses data end": blob([]ChunkRef{{Offset: 1, Size: 90, Records: 1}}, nil),
	}
	for name, data := range cases {
		idx, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
		if err == nil && idx != nil {
			t.Errorf("%s: damaged footer accepted: %+v", name, idx)
		}
		if err == nil && idx == nil {
			t.Errorf("%s: damaged footer silently treated as footer-less", name)
		}
	}

	// Genuine v1 shapes: no trailer magic anywhere — (nil, nil), no error.
	for name, data := range map[string][]byte{
		"tiny":      {1, 2, 3},
		"no footer": append(make([]byte, 100), []byte("plain old bytes")...),
	} {
		idx, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
		if err != nil || idx != nil {
			t.Errorf("%s: footer-less input should fall back cleanly, got (%+v, %v)", name, idx, err)
		}
	}
}

func int64ToInt(v int64) int { return int(v) }

// TestScanFramesRejects: the frame scan stops at the first broken frame,
// naming the damage and counting the bytes it could not reach, and keeps
// the sound frames before it.
func TestScanFramesRejects(t *testing.T) {
	good := append(binary.AppendUvarint(nil, 3), 1, 2, 3)
	cases := map[string][]byte{
		"frame past end":   binary.AppendUvarint(nil, 1<<20), // claims 1MiB, file ends here
		"zero length":      {0x00, 0xaa},
		"huge length":      binary.AppendUvarint(nil, maxChunkLen+1),
		"malformed varint": bytes.Repeat([]byte{0x80}, 12),
	}
	for name, bad := range cases {
		data := append(append([]byte(nil), good...), bad...)
		idx, lost, err := scanFrames(bytes.NewReader(data), 0, int64(len(data)))
		if err == nil {
			t.Errorf("%s: scan accepted a broken frame walk", name)
		}
		if len(idx.Chunks) != 1 || idx.DataEnd != int64(len(good)) || lost != int64(len(bad)) {
			t.Errorf("%s: scan kept %d frames ending at %d with %d bytes lost, want 1 frame ending at %d with %d lost",
				name, len(idx.Chunks), idx.DataEnd, lost, len(good), len(bad))
		}
	}
	if idx, lost, err := scanFrames(bytes.NewReader(nil), 0, 0); err != nil || lost != 0 || len(idx.Chunks) != 0 {
		t.Errorf("empty chunk region: got %d frames, %d bytes lost, %v; want an empty table", len(idx.Chunks), lost, err)
	}
}

// TestParallelRejectsTamperedIndex: an index that lies about boundaries
// or contents must stop the replay with an error — decodeChunk trusts
// the bytes, not the table — and must never panic or mis-sequence.
func TestParallelRejectsTamperedIndex(t *testing.T) {
	data := synthTrace(t, 4)
	freshIndex := func() *Index {
		idx, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
		if err != nil || idx == nil {
			t.Fatalf("index: %v", err)
		}
		return idx
	}
	hdr := header{version: Version, stackBase: 0x40000, workload: "synth"}
	tampers := map[string]func(*Index){
		"offset shifted":    func(idx *Index) { idx.Chunks[1].Offset++ },
		"size inflated":     func(idx *Index) { idx.Chunks[2].Size++ },
		"record count lies": func(idx *Index) { idx.Chunks[1].Records++ },
		"offset past eof":   func(idx *Index) { idx.Chunks[3].Offset = int64(len(data)) + 100 },
	}
	for name, tamper := range tampers {
		for _, jobs := range []int{1, 3} {
			idx := freshIndex()
			tamper(idx)
			p := &ParallelReplayer{traceFile: &traceFile{ra: bytes.NewReader(data), hdr: hdr, index: idx}, jobs: jobs}
			p.NewConsumer()
			if err := p.ReplayContext(context.Background()); err == nil {
				t.Errorf("%s (jobs=%d): tampered index replayed without error", name, jobs)
			}
		}
	}
}

// TestStatHostileSkipFlag: the skipped flag is only legal on executable
// event kinds.  A hand-crafted tag smuggling it onto the end record must
// fail its chunk's decode — and can therefore never inflate the Skipped
// tally — while genuinely skipped events count exactly once.
func TestStatHostileSkipFlag(t *testing.T) {
	var hostileEnd []byte
	hostileEnd = append(hostileEnd, recEnd|flagSkipped)
	hostileEnd = binary.AppendUvarint(hostileEnd, 1)      // ic
	hostileEnd = binary.AppendUvarint(hostileEnd, 0x1000) // pc
	hostileEnd = binary.AppendUvarint(hostileEnd, 0)      // exit
	hostileEnd = append(hostileEnd, 1)                    // halted
	data := withRecord(t, hostileEnd)
	info, err := Stat(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Damaged() || info.Bad != 1 || !strings.Contains(info.Chunks[0].Err, "malformed end tag") {
		t.Errorf("skip flag on the end record: chunk 0 status %q, %d bad chunks; want one malformed-tag chunk", info.Chunks[0].Err, info.Bad)
	}
	if info.Skipped != 0 {
		t.Errorf("Skipped = %d, want 0: the damaged chunk counts nothing", info.Skipped)
	}

	// A legitimately skipped predicated read counts exactly once.
	var buf bytes.Buffer
	w := newWriter(&buf, header{stackBase: 0x40000, workload: "skip"})
	w.event(recRead, 1, &pin.Context{Event: &vm.Event{PC: 0x1000, Executed: false}})
	w.event(recWrite, 2, &pin.Context{Event: &vm.Event{PC: 0x1008, Size: 8, Executed: true}})
	if err := w.end(3, 0x1010, 0, true); err != nil {
		t.Fatal(err)
	}
	info, err = Stat(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Damaged() {
		t.Errorf("intact trace reported damaged: %+v", info)
	}
	if info.Skipped != 1 {
		t.Errorf("Skipped = %d, want 1 (one skipped read, one executed write)", info.Skipped)
	}
	if info.Reads != 1 || info.Writes != 1 {
		t.Errorf("Reads/Writes = %d/%d, want 1/1", info.Reads, info.Writes)
	}
}

// TestRemovedRecordKindsFailClosed: record kinds 5 and 7 are unassigned,
// so a trace holding either fails closed.  Strict replay, with inline
// decode and with a decode worker pool, stops with an unknown-tag error,
// and Stat reports the chunk damaged with that error; salvage replay
// skips the chunk and reports it damaged.
func TestRemovedRecordKindsFailClosed(t *testing.T) {
	for _, tc := range []struct {
		kind byte
		rest []byte
	}{
		{5, []byte{1, 0}},          // ic delta, id
		{7, []byte{0x80, 0x20, 4}}, // start 0x1000, length
	} {
		data := withRecord(t, append([]byte{tc.kind}, tc.rest...))
		const want = "unknown record tag"
		if info, err := Stat(bytes.NewReader(data), int64(len(data))); err != nil || info.Bad != 1 || !strings.Contains(info.Chunks[0].Err, want) {
			t.Errorf("kind %d: Stat: got %v, want chunk 0 damaged with %q", tc.kind, err, want)
		}
		for _, jobs := range []int{1, 2} {
			pr, err := NewParallelReplayer(bytes.NewReader(data), int64(len(data)), ParallelOptions{Jobs: jobs})
			if err != nil {
				t.Fatal(err)
			}
			if err := pr.Replay(); !IsCorrupt(err) || !strings.Contains(err.Error(), want) {
				t.Errorf("kind %d: Jobs %d replay: got %v, want a corrupt-trace error with %q", tc.kind, jobs, err, want)
			}
			pr, err = NewParallelReplayer(bytes.NewReader(data), int64(len(data)), ParallelOptions{Jobs: jobs, Salvage: true})
			if err != nil {
				t.Fatal(err)
			}
			c := pr.NewConsumer()
			if err := pr.Replay(); err != nil {
				t.Fatalf("kind %d: Jobs %d salvage replay: %v", tc.kind, jobs, err)
			}
			if rep := c.SalvageReport(); rep.ChunksBad != 1 || rep.RecordsLost != 1 || !rep.Complete {
				t.Errorf("kind %d: Jobs %d salvage: %s, want one bad chunk losing one record, end record kept", tc.kind, jobs, rep)
			}
		}
	}
}

// walkFrames is FuzzIndex's oracle, independent of the index: it decodes
// b by walking the chunk length prefixes from the header end, as a
// streaming reader would, and returns the end record.  Whatever follows
// the end record must be nothing or a valid footer listing exactly the
// chunks walked.
func walkFrames(b []byte) (record, error) {
	hr := newHeaderReader(bytes.NewReader(b), int64(len(b)))
	hdr, err := readHeader(hr)
	if err != nil {
		return record{}, err
	}
	off := int(hr.n)
	var p chunkParser
	var rec record
	for chunks := 1; ; chunks++ {
		size, n := binary.Uvarint(b[off:])
		if n <= 0 || size == 0 || size > uint64(len(b)-off-n) || (hdr.version >= 2 && size <= crcLen) {
			return rec, errors.New("etrace: bad chunk frame")
		}
		payload := b[off+n : off+n+int(size)]
		off += n + int(size)
		if hdr.version >= 2 {
			body := payload[:len(payload)-crcLen]
			if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(payload[len(body):]) {
				return rec, errors.New("etrace: chunk checksum mismatch")
			}
			payload = body
		}
		for p.reset(payload); !p.done(); {
			if err := p.parseRecord(&rec); err != nil {
				return rec, err
			}
			if rec.kind != recEnd {
				continue
			}
			if off == len(b) {
				return rec, nil
			}
			footer, err := parseFooter(b[off:])
			if err != nil {
				return rec, err
			}
			if len(footer) != chunks {
				return rec, fmt.Errorf("etrace: index lists %d chunks, stream had %d", len(footer), chunks)
			}
			return rec, nil
		}
	}
}
