package etrace

import "io"

// Info summarises one trace file without replaying it through any tools
// (the tqdump inspector's view).
type Info struct {
	Version     int  // format revision of the stream itself
	Checksummed bool // Version >= 2: header/chunk/footer CRC32C present
	Workload    string
	StackBase   uint64
	Routines    []Routine

	// Indexed reports whether the trace carried an index footer;
	// IndexChunks is the footer's chunk-entry count when it did.
	Indexed     bool
	IndexChunks int

	Chunks  int
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

// Stat scans a trace and returns its summary.  A trace that decodes
// cleanly but stops before its end record is reported with Complete
// false rather than as an error, so partial recordings stay inspectable.
func Stat(rd io.Reader) (*Info, error) {
	d := newDecoder(rd)
	hdr, err := d.readHeader()
	if err != nil {
		return nil, err
	}
	info := &Info{
		Version:     int(hdr.version),
		Checksummed: hdr.version >= 2,
		Workload:    hdr.workload,
		StackBase:   hdr.stackBase,
		Routines:    hdr.routines,
	}
	for {
		rec, err := d.next()
		if err == io.EOF || err == errTruncated {
			info.Chunks = d.chunks
			if d.footer != nil {
				info.Indexed = true
				info.IndexChunks = len(d.footer.Chunks)
			}
			return info, nil
		}
		if err != nil {
			return nil, err
		}
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
		// Only executable event kinds carry the skipped flag; a hostile
		// tag smuggling it onto an end record must not inflate the
		// tally.
		switch rec.kind {
		case recRead, recWrite, recCall, recReturn:
			if !rec.executed {
				info.Skipped++
			}
		}
	}
}
