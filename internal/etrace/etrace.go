// Package etrace implements a compact binary event-trace format for the
// instrumentation framework: record the guest's dynamic event stream
// once, then replay it any number of times through the profiling tools
// without constructing a vm.Machine at all.
//
// The observation that makes this sound: analysis routines never perturb
// the guest.  Charged analysis cost lands in the machine's separate
// Overhead counter, the run budget counts guest instructions, and
// handlers only observe events — so the dynamic event stream is a pure
// function of the workload, identical for every profiling configuration.
// A slice-interval sweep therefore needs one guest execution plus N
// cheap replays (the "record once, analyze many" split of
// capture-replay instrumentation systems).
//
// On-disk layout (all integers varint; deltas zigzag-varint):
//
//	"TQET" version          magic + format version byte
//	stack-base              for IsStackAddr during replay
//	workload label          length-prefixed string
//	routine table           entry/end/name/main-image flag per routine,
//	                        sorted by entry (interned once, replacing
//	                        per-event symbol resolution)
//	header CRC32C           version >= 2: little-endian checksum over
//	                        every preceding header byte
//	chunk*                  length-prefixed record blocks; version >= 2
//	                        payloads end in a CRC32C over the preceding
//	                        payload bytes (inside the length prefix, so
//	                        chunk framing is version-independent)
//	index footer            optional per-chunk index appended after the
//	                        final chunk (see index.go): "TQIX" payload
//	                        listing every chunk's byte offset, size,
//	                        record/event counts and instruction-count
//	                        span, closed by an 8-byte trailer (LE32
//	                        payload length + "TQIX") so a seekable
//	                        reader discovers it from the end of the
//	                        file.  Traces recorded before the footer
//	                        existed decode unchanged; indexed readers
//	                        rebuild their index by a frame scan.
//
// Each chunk is a length-prefixed block of records, and every delta chain
// resets at a chunk boundary, so a replayer streams the file chunk by
// chunk without loading it whole and a corrupted chunk cannot poison
// decoding past its own boundary.  Records:
//
//	static   pc + 8 raw encoded instruction bytes; written at
//	         instrument time, so it always precedes the first dynamic
//	         event at that pc (the replayer's code cache fill)
//	read/    icount delta, pc/addr/sp deltas, size class and the
//	write    executed flag packed into the tag byte
//	call/    as above plus the branch-target delta (call edges carry
//	return   the callee entry, returns the return pc)
//	blockdef basic-block start + length, interned in encounter order
//	block    icount delta + block id (basic-block execution)
//	end      final icount, final pc, exit code, halted flag
//
// The Recorder attaches to a pin.Engine exactly like a profiling tool;
// a ParallelReplayer's Consumer implements pin.Host, so core.Attach,
// quad.Attach and flatprof.Attach run unchanged against a recorded
// stream and produce byte-identical profiles (asserted by the golden
// tests).
package etrace

import (
	"fmt"
	"hash/crc32"

	"tquad/internal/vm"
)

// Format constants.
const (
	// Version is the trace format version this package writes.  Version 2
	// adds integrity checksums: a CRC32C over the header appended after
	// the routine table, a CRC32C as the last four bytes of every chunk
	// payload (inside the length prefix, so chunk framing and ScanIndex
	// are unchanged), and a CRC32C over the index-footer payload.  The
	// reader accepts versions 1 and 2.
	Version = 2

	// versionPlain is the original checksum-less format revision.
	versionPlain = 1

	// crcLen is the byte width of every embedded CRC32C checksum.
	crcLen = 4

	magic = "TQET"

	// chunkTarget is the payload size at which the writer seals a chunk.
	chunkTarget = 32 << 10

	// Decoder hardening caps: a hostile header or chunk length must fail
	// fast instead of provoking a huge allocation.
	maxChunkLen    = 1 << 26
	maxNameLen     = 1 << 12
	maxRoutines    = 1 << 20
	maxBlockDefs   = 1 << 22
	maxBlockInstrs = 1 << 20

	// Index-footer format (see index.go).  indexVersionCRC payloads end
	// in a CRC32C over the preceding payload bytes.
	indexMagic      = "TQIX"
	indexVersion    = 1
	indexVersionCRC = 2
	// trailerLen is the fixed-size footer tail: LE32 payload length plus
	// the magic, the last eight bytes of an indexed trace.
	trailerLen = 8
	// maxIndexEntries caps the chunk count a footer may claim; combined
	// with chunkTarget it admits traces far past the terabyte mark.
	maxIndexEntries = 1 << 22
	// maxFooterLen bounds how much trailing data the streaming decoder
	// will buffer while validating a footer.
	maxFooterLen = 1 << 26
)

// Record kinds (low three bits of the tag byte).
const (
	recEnd      = 0
	recRead     = 1
	recWrite    = 2
	recCall     = 3
	recReturn   = 4
	recBlock    = 5
	recStatic   = 6
	recBlockDef = 7

	// flagSkipped marks a predicated instruction that occupied its slot
	// in the dynamic stream without executing.
	flagSkipped = 0x08
	// sizeShift positions the access-size class (+1; 0 = no access) in
	// the tag's high nibble.
	sizeShift = 4
)

// Routine is one interned symbol-table entry of a trace header.
type Routine struct {
	Name  string
	Entry uint64
	End   uint64
	Main  bool // routine belongs to the main executable image
}

// header is the decoded trace preamble.
type header struct {
	version   byte
	stackBase uint64
	workload  string
	routines  []Routine // sorted by entry
}

// castagnoli is the CRC32C polynomial table; hash/crc32 dispatches to the
// hardware instruction where available.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sizeBits maps an access size to its tag encoding (class index + 1).
func sizeBits(size int) (byte, error) {
	if size == 0 {
		return 0, nil
	}
	for i, s := range vm.MemSizeClasses {
		if s == size {
			return byte(i + 1), nil
		}
	}
	return 0, fmt.Errorf("etrace: unencodable access size %d", size)
}

// sizeFromBits is the inverse of sizeBits.
func sizeFromBits(bits byte) (int, error) {
	if bits == 0 {
		return 0, nil
	}
	if int(bits) > len(vm.MemSizeClasses) {
		return 0, fmt.Errorf("etrace: bad access-size class %d", bits)
	}
	return vm.MemSizeClasses[bits-1], nil
}

// zigzag encodes a signed delta as an unsigned varint payload.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
