package etrace

import (
	"bytes"
	"fmt"
)

// SetFormatVersion forces the trace format revision a recording writes —
// test-only access to the unexported compatibility knob, used by the
// format-generation compat suite to produce v1/v2 streams on demand.
func SetFormatVersion(o *RecordOptions, v byte) { o.formatVersion = v }

// WalkFrames runs FuzzIndex's index-free oracle (walkFrames) over b and
// returns the end record's instruction count, exit code and halted flag.
func WalkFrames(b []byte) (ic uint64, exit int64, halted bool, err error) {
	rec, err := walkFrames(b)
	return rec.ic, rec.exitCode, rec.halted, err
}

// RewriteFooter returns a copy of the indexed trace data whose footer
// lists the chunk entries edit returns, checksummed as a recorder writes
// it: a footer that passes every structural check yet may lie.
func RewriteFooter(data []byte, edit func([]ChunkRef) []ChunkRef) []byte {
	idx, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil || idx == nil {
		panic(fmt.Sprintf("RewriteFooter: trace has no valid footer: %v", err))
	}
	return appendFooter(bytes.Clone(data[:idx.DataEnd]), edit(idx.Chunks), indexVersionCRC)
}
