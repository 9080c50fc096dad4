// Trace integrity: corruption classification and salvage accounting.
// Stat (stat.go) is the standalone check behind tqdump's health report.
//
// The integrity model has two tiers.  Detection is fail-closed: a strict
// replay of a checksummed (version >= 2) trace either produces the exact
// recorded stream or stops with a CorruptError — a flipped bit inside a
// structurally-valid chunk can no longer silently shift every downstream
// bandwidth table.  Salvage is fail-soft: with the index and per-chunk
// CRCs, a replay can skip exactly the damaged chunks (every delta chain
// resets at a chunk boundary, so the loss does not cascade) and report
// precisely what is missing.
package etrace

import (
	"errors"
	"fmt"

	"tquad/internal/vm"
)

// SalvageReport tallies what a salvage replay lost.  Counts are exact for
// what the replay observed; RecordsLost/ICountLost come from the index
// footer's per-chunk hints and are zero when the trace carried none (a
// scanned chunk table has no hints).
type SalvageReport struct {
	ChunksTotal int // chunks the replay visited (including damaged ones)
	ChunksBad   int // chunks skipped whole or in part
	CRCErrors   int // chunks whose payload checksum did not match

	RecordsLost    uint64 // records in skipped chunks (footer hint)
	ICountLost     uint64 // guest-instruction span of damaged chunks (footer hint)
	RecordsDropped uint64 // records that decoded but could not apply

	// TornTail: the stream ended before its end record was decoded —
	// truncation or unrecoverable framing damage at the tail.
	TornTail bool
	// FooterDamaged: the index footer was missing, malformed, or
	// disagreed with the decoded stream.
	FooterDamaged bool
	// Complete: the end record was decoded (final state is trustworthy).
	Complete bool
}

// Damaged reports whether the replay observed any loss at all.
func (r *SalvageReport) Damaged() bool {
	return r.ChunksBad > 0 || r.CRCErrors > 0 || r.RecordsDropped > 0 ||
		r.TornTail || r.FooterDamaged || !r.Complete
}

// String renders the report as the one-line gap summary the CLIs print.
func (r *SalvageReport) String() string {
	if !r.Damaged() {
		return fmt.Sprintf("intact: %d chunks", r.ChunksTotal)
	}
	s := fmt.Sprintf("salvaged %d/%d chunks (%d checksum failures)",
		r.ChunksTotal-r.ChunksBad, r.ChunksTotal, r.CRCErrors)
	if r.RecordsLost > 0 || r.ICountLost > 0 {
		s += fmt.Sprintf("; lost ~%d records, ~%d instructions", r.RecordsLost, r.ICountLost)
	}
	if r.RecordsDropped > 0 {
		s += fmt.Sprintf("; dropped %d unapplicable records", r.RecordsDropped)
	}
	if r.TornTail {
		s += "; torn tail"
	}
	if r.FooterDamaged {
		s += "; index footer damaged"
	}
	if !r.Complete {
		s += "; end record lost (final state missing)"
	}
	return s
}

// merge folds the chunk-level stats of o (decode-side accounting) into r
// (a consumer's report), leaving r's own apply-side RecordsDropped alone.
func (r *SalvageReport) merge(o *SalvageReport) {
	r.ChunksTotal = o.ChunksTotal
	r.ChunksBad = o.ChunksBad
	r.CRCErrors = o.CRCErrors
	r.RecordsLost = o.RecordsLost
	r.ICountLost = o.ICountLost
	r.TornTail = o.TornTail
	r.FooterDamaged = o.FooterDamaged
	r.Complete = o.Complete
}

// CorruptError marks a replay failure caused by the trace bytes — damage
// or tampering, not I/O, cancellation, or caller misuse.  The scheduler
// uses the distinction to classify a corrupt recorded trace as
// re-recordable: the guest can simply be executed again.
type CorruptError struct {
	Err error
}

func (e *CorruptError) Error() string { return e.Err.Error() }
func (e *CorruptError) Unwrap() error { return e.Err }

// IsCorrupt reports whether err (or anything it wraps) is a CorruptError.
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// corrupt wraps a trace-content failure as a CorruptError.  Cancellation
// is the caller's signal, not the trace's fault, and double-wrapping is
// pointless — both pass through.
func corrupt(err error) error {
	if err == nil || vm.IsCancel(err) || IsCorrupt(err) {
		return err
	}
	return &CorruptError{Err: err}
}
