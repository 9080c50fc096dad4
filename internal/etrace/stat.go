package etrace

import (
	"errors"
	"io"
)

// Info is one stored trace checked end to end without replaying it
// through any tools: the tqdump inspector's view, and what a checkpoint
// validates a trace with.
type Info struct {
	Version     int  // format revision of the stream itself
	Checksummed bool // Version >= 2: header/chunk/footer CRC32C present
	Workload    string
	StackBase   uint64
	Routines    []Routine

	// Indexed reports whether the chunk table came from the index footer;
	// IndexErr is why a footer that is present went unused, the table then
	// being rebuilt by a frame scan.
	Indexed  bool
	IndexErr string

	Chunks        []ChunkStatus
	Bad           int   // chunks with a non-empty Err
	LostTailBytes int64 // bytes past the last frame the scan could reach

	// Record counts over the chunks that decoded cleanly.
	Statics uint64
	Reads   uint64
	Writes  uint64
	Calls   uint64
	Returns uint64
	Skipped uint64 // predicated events that did not execute

	// Final state from the end record; valid only when Complete.
	Complete    bool
	FinalICount uint64
	FinalPC     uint64
	ExitCode    int64
	Halted      bool
}

// ChunkStatus is one chunk's entry in Info.
type ChunkStatus struct {
	Ref ChunkRef
	Err string // the replay decoder's error; empty when the chunk is sound
}

// Damaged reports whether anything at all is wrong with the trace.
func (info *Info) Damaged() bool {
	return info.Bad > 0 || info.IndexErr != "" || info.LostTailBytes > 0 || !info.Complete
}

// Stat checks one stored trace end to end — header, index footer, every
// chunk's checksum and record stream — through the replay's own chunk
// location and decoder, without applying a single record to any tool.
// It returns an error only when the header is unreadable (nothing
// downstream can be trusted); all other damage is reported in the Info,
// one status per chunk, so a trace that stops before its end record is
// still inspectable.
func Stat(ra io.ReaderAt, size int64) (*Info, error) {
	t, err := openTrace(ra, size)
	if err != nil {
		return nil, corrupt(err)
	}
	info := &Info{
		Version:       int(t.hdr.version),
		Checksummed:   t.hdr.version >= 2,
		Workload:      t.hdr.workload,
		StackBase:     t.hdr.stackBase,
		Routines:      t.hdr.routines,
		Indexed:       t.index.FromFooter,
		LostTailBytes: t.lost,
	}
	if t.footerErr != nil {
		info.IndexErr = t.footerErr.Error()
	}
	var recs []record
	last := len(t.index.Chunks) - 1
	for i, ref := range t.index.Chunks {
		var dc decodedChunk
		recs, err = t.decodeChunk(ref, i == last, recs[:0], &dc)
		st := ChunkStatus{Ref: ref}
		if err != nil && !errors.Is(err, errTruncated) {
			st.Err = err.Error()
			info.Bad++
		} else {
			info.count(recs)
		}
		info.Chunks = append(info.Chunks, st)
	}
	return info, nil
}

// count tallies one cleanly decoded chunk's records.
func (info *Info) count(recs []record) {
	for i := range recs {
		rec := &recs[i]
		switch rec.kind {
		case recStatic:
			info.Statics++
		case recRead:
			info.Reads++
		case recWrite:
			info.Writes++
		case recCall:
			info.Calls++
		case recReturn:
			info.Returns++
		case recEnd:
			info.Complete = true
			info.FinalICount = rec.ic
			info.FinalPC = rec.pc
			info.ExitCode = rec.exitCode
			info.Halted = rec.halted
		}
		// parseRecord rejects the skipped flag on static and end tags, so
		// only executable events can count here.
		if !rec.executed {
			info.Skipped++
		}
	}
}
