// The per-chunk index: what makes a recorded trace seekable, and the one
// way a stored trace's chunks are located.
//
// Every delta chain in the record format resets at a chunk boundary, so
// any chunk can be decoded knowing nothing but its payload bytes.  The
// index is the table of contents that turns that property into random
// access: one ChunkRef per chunk, serialised as a footer after the end
// record.  The footer is discovered backwards — its last eight bytes are
// a little-endian payload length plus the "TQIX" magic — so a reader
// finds it in one ReadAt without scanning the stream.
//
// openTrace is how NewParallelReplayer and Stat both find the chunks: it
// reads the header, then uses the footer when it is valid and its first
// entry starts at the header end.  Otherwise — a trace recorded before
// the footer existed, or one whose footer was lost or damaged — one frame
// scan rebuilds the offset table by walking the chunk length prefixes up
// to where a damaged footer's intact trailer says it starts, paying one
// cheap sequential pass of frame headers (not payloads) and yielding a
// table without the record-count and instruction-count hints.
//
// Footer validation is deliberately strict.  A footer that is present but
// malformed — truncated, length-mismatched, claiming offsets that are not
// contiguous or sizes past the decoder caps — is reported, never trusted:
// an index that disagrees with the chunk framing could otherwise
// mis-sequence a parallel replay.  Strict replay fails on it; salvage
// replay and Stat fall back to the frame scan.
package etrace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// ChunkRef locates and summarises one chunk of a recorded trace.
type ChunkRef struct {
	Offset int64 // file offset of the chunk's uvarint length prefix
	Size   int64 // payload size in bytes (the length prefix's value)

	// Decode hints; zero in tables rebuilt by a frame scan.
	Records uint64 // records in the chunk
	Events  uint64 // dynamic event records (reads/writes/calls/returns)
	StartIC uint64 // guest instruction count entering the chunk
	EndIC   uint64 // guest instruction count after the chunk's last record
}

// frameLen is the chunk's total on-disk span: length prefix + payload.
func (c ChunkRef) frameLen() int64 { return int64(uvarintLen(uint64(c.Size))) + c.Size }

// Index is a trace's chunk table.
type Index struct {
	Chunks []ChunkRef
	// DataEnd is the file offset one past the last chunk: the footer's
	// start for indexed traces, the end of the last sound frame for
	// scanned ones.
	DataEnd int64
	// FromFooter reports whether the index was read from a footer rather
	// than rebuilt by a frame scan (footer indices carry decode hints).
	FromFooter bool
}

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendFooter serialises the index footer (payload + trailer) onto b at
// the given index-format version.  indexVersionCRC payloads end in a
// CRC32C over every preceding payload byte.
func appendFooter(b []byte, chunks []ChunkRef, ver byte) []byte {
	start := len(b)
	b = append(b, indexMagic...)
	b = append(b, ver)
	b = binary.AppendUvarint(b, uint64(len(chunks)))
	for _, c := range chunks {
		b = binary.AppendUvarint(b, uint64(c.Offset))
		b = binary.AppendUvarint(b, uint64(c.Size))
		b = binary.AppendUvarint(b, c.Records)
		b = binary.AppendUvarint(b, c.Events)
		b = binary.AppendUvarint(b, c.StartIC)
		b = binary.AppendUvarint(b, c.EndIC)
	}
	if ver >= indexVersionCRC {
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[start:], castagnoli))
	}
	var trailer [trailerLen]byte
	binary.LittleEndian.PutUint32(trailer[:4], uint32(len(b)-start))
	copy(trailer[4:], indexMagic)
	return append(b, trailer[:]...)
}

// parseFooter decodes and validates one complete footer blob (payload
// followed by trailer).  Chunk entries must be contiguous — each chunk
// starting exactly where the previous frame ended — so an index that
// disagrees with the real chunk boundaries fails here instead of
// mis-sequencing a replay.
func parseFooter(b []byte) ([]ChunkRef, error) {
	minLen := len(indexMagic) + 1 + 1 + trailerLen
	if len(b) < minLen {
		return nil, errors.New("truncated index footer")
	}
	trailer := b[len(b)-trailerLen:]
	if string(trailer[4:]) != indexMagic {
		return nil, errors.New("index footer trailer magic missing")
	}
	if int64(binary.LittleEndian.Uint32(trailer[:4])) != int64(len(b)-trailerLen) {
		return nil, errors.New("index footer length mismatch")
	}
	p := b[:len(b)-trailerLen]
	if string(p[:len(indexMagic)]) != indexMagic {
		return nil, errors.New("index footer payload magic missing")
	}
	ver := p[len(indexMagic)]
	if ver != indexVersion && ver != indexVersionCRC {
		return nil, fmt.Errorf("unsupported index version %d", ver)
	}
	if ver >= indexVersionCRC {
		if len(p) < len(indexMagic)+1+1+crcLen {
			return nil, errors.New("truncated index footer")
		}
		body, sum := p[:len(p)-crcLen], p[len(p)-crcLen:]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(sum) {
			return nil, errors.New("index footer checksum mismatch")
		}
		p = body
	}
	p = p[len(indexMagic)+1:]
	n, sz := binary.Uvarint(p)
	if sz <= 0 {
		return nil, errors.New("malformed index entry count")
	}
	if n == 0 || n > maxIndexEntries {
		return nil, fmt.Errorf("bad index entry count %d", n)
	}
	p = p[sz:]
	chunks := make([]ChunkRef, 0, n)
	next := func() (uint64, error) {
		v, sz := binary.Uvarint(p)
		if sz <= 0 {
			return 0, errors.New("truncated index entry")
		}
		p = p[sz:]
		return v, nil
	}
	for i := uint64(0); i < n; i++ {
		var c ChunkRef
		var err error
		var off, size uint64
		if off, err = next(); err != nil {
			return nil, err
		}
		if size, err = next(); err != nil {
			return nil, err
		}
		if c.Records, err = next(); err != nil {
			return nil, err
		}
		if c.Events, err = next(); err != nil {
			return nil, err
		}
		if c.StartIC, err = next(); err != nil {
			return nil, err
		}
		if c.EndIC, err = next(); err != nil {
			return nil, err
		}
		if off > math.MaxInt64 || size == 0 || size > maxChunkLen {
			return nil, fmt.Errorf("index entry %d: bad chunk frame [%d +%d]", i, off, size)
		}
		c.Offset, c.Size = int64(off), int64(size)
		if c.Records == 0 || c.Events > c.Records || c.StartIC > c.EndIC {
			return nil, fmt.Errorf("index entry %d: inconsistent hints", i)
		}
		if len(chunks) > 0 {
			prev := chunks[len(chunks)-1]
			if c.Offset != prev.Offset+prev.frameLen() {
				return nil, fmt.Errorf("index entry %d disagrees with chunk boundaries", i)
			}
		}
		chunks = append(chunks, c)
	}
	if len(p) != 0 {
		return nil, errors.New("trailing bytes in index footer")
	}
	return chunks, nil
}

// ReadIndex reads the index footer of a trace of the given size.  A
// trace without a footer (recorded before the index existed) returns
// (nil, nil); a footer that is present but malformed is an error — the
// caller must fail closed or rebuild the table by a frame scan, never
// trust a broken table.
func ReadIndex(ra io.ReaderAt, size int64) (*Index, error) {
	if size < trailerLen {
		return nil, nil
	}
	var trailer [trailerLen]byte
	if _, err := ra.ReadAt(trailer[:], size-trailerLen); err != nil {
		return nil, fmt.Errorf("etrace: read index trailer: %w", err)
	}
	if string(trailer[4:]) != indexMagic {
		return nil, nil // no footer: a v1 trace
	}
	payload := int64(binary.LittleEndian.Uint32(trailer[:4]))
	if payload > maxFooterLen || payload+trailerLen > size {
		return nil, errors.New("etrace: index footer length out of range")
	}
	blob := make([]byte, payload+trailerLen)
	if _, err := ra.ReadAt(blob, size-int64(len(blob))); err != nil {
		return nil, fmt.Errorf("etrace: read index footer: %w", err)
	}
	chunks, err := parseFooter(blob)
	if err != nil {
		return nil, fmt.Errorf("etrace: %s", err)
	}
	dataEnd := size - int64(len(blob))
	last := chunks[len(chunks)-1]
	if last.Offset+last.frameLen() != dataEnd {
		return nil, errors.New("etrace: index disagrees with chunk boundaries")
	}
	return &Index{Chunks: chunks, DataEnd: dataEnd, FromFooter: true}, nil
}

// scanFrames rebuilds a chunk table by walking the chunk length prefixes
// in [start, end) — one tiny ReadAt per chunk frame header, no payload
// reads.  It returns the frames before the first damage, the bytes past
// the last sound frame and the damage that stopped the walk (nil when it
// reached end).  The table carries no decode hints (Records/Events/IC
// spans are zero) and may be empty.
func scanFrames(ra io.ReaderAt, start, end int64) (*Index, int64, error) {
	idx := &Index{}
	off := start
	var hdr [binary.MaxVarintLen64]byte
	var err error
	for off < end {
		if len(idx.Chunks) >= maxIndexEntries {
			err = errors.New("etrace: chunk count exceeds index cap")
			break
		}
		h := hdr[:min(int64(len(hdr)), end-off)]
		if _, rerr := ra.ReadAt(h, off); rerr != nil {
			err = fmt.Errorf("etrace: scan chunk frame at %d: %w", off, rerr)
			break
		}
		size, n := binary.Uvarint(h)
		if n <= 0 {
			err = fmt.Errorf("etrace: malformed chunk length at %d", off)
			break
		}
		if size == 0 || size > maxChunkLen {
			err = fmt.Errorf("etrace: bad chunk length %d", size)
			break
		}
		frame := int64(n) + int64(size)
		if off+frame > end {
			err = errors.New("etrace: chunk frame past end of trace")
			break
		}
		idx.Chunks = append(idx.Chunks, ChunkRef{Offset: off, Size: int64(size)})
		off += frame
	}
	idx.DataEnd = off
	return idx, end - off, err
}

// traceFile is one stored trace opened for reading: its header, its chunk
// table and what locating the chunks ran into.  NewParallelReplayer and
// Stat both open a trace with openTrace and read each chunk with
// decodeChunk.
type traceFile struct {
	ra    io.ReaderAt
	hdr   header
	index *Index

	// footerErr is why an index footer that is present went unused (it is
	// malformed, or its first entry is not at the header end); the chunk
	// table then comes from a frame scan.  scanErr is the damage that
	// stopped that scan, and lost the bytes it left unreachable.
	footerErr error
	scanErr   error
	lost      int64

	// salvage makes decodeChunk absorb damage into the chunk's flags
	// instead of failing on it.
	salvage bool
}

// openTrace reads a stored trace's header and locates its chunks: through
// the index footer when it is valid and its first entry starts at the
// header end, otherwise by one frame scan from the header end to the
// footer's start (see framesEnd) or the end of the trace.  Only
// header damage is an error; a bad footer or a scan that stopped at
// damage is left in the traceFile for the caller to judge.
func openTrace(ra io.ReaderAt, size int64) (*traceFile, error) {
	hr := newHeaderReader(ra, size)
	hdr, err := readHeader(hr)
	if err != nil {
		return nil, err
	}
	headerEnd := hr.n
	t := &traceFile{ra: ra, hdr: hdr}
	idx, err := ReadIndex(ra, size)
	if err == nil && idx != nil && idx.Chunks[0].Offset != headerEnd {
		idx, err = nil, fmt.Errorf("etrace: index starts at %d, chunks at %d", idx.Chunks[0].Offset, headerEnd)
	}
	t.index, t.footerErr = idx, err
	if idx == nil {
		t.index, t.lost, t.scanErr = scanFrames(ra, headerEnd, framesEnd(ra, headerEnd, size))
	}
	return t, nil
}

// framesEnd returns where openTrace's frame scan stops: where a footer
// that went unused starts, when its trailer magic is intact, its length
// in range and its payload magic at the offset that length implies, so
// the footer's bytes are never read as chunk frames; otherwise size.
func framesEnd(ra io.ReaderAt, headerEnd, size int64) int64 {
	var b [trailerLen]byte
	if size-trailerLen < headerEnd {
		return size
	}
	if _, err := ra.ReadAt(b[:], size-trailerLen); err != nil || string(b[4:]) != indexMagic {
		return size
	}
	payload := int64(binary.LittleEndian.Uint32(b[:4]))
	start := size - trailerLen - payload
	if payload > maxFooterLen || start < headerEnd {
		return size
	}
	magic := b[:len(indexMagic)]
	if _, err := ra.ReadAt(magic, start); err != nil || string(magic) != indexMagic {
		return size
	}
	return start
}
