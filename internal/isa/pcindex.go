package isa

import (
	"cmp"
	"slices"
)

// CodeRange is a half-open range [Lo, Hi) of code addresses.
type CodeRange struct{ Lo, Hi uint64 }

// pcIndexRanges is how many ranges a PCIndex gives slots to.
const pcIndexRanges = 2

// PCIndex maps the instruction pcs of up to two code ranges onto one
// dense run of slots, one per InstrSize-aligned pc, the first range's
// slots first.  Tables indexed through it — the vm's code and block
// caches, a trace consumer's compiled sites — hold one entry per
// instruction of the code they cover, not one per instruction-sized
// step of the address gap between a main image at 0x10000 and a library
// at 0x800000.  A pc outside both ranges, or not instruction-aligned,
// has no slot; callers keep a map for those.
//
// Two ranges, not a slice of them: Slot is the lookup every interpreted
// instruction and every replayed event makes, and two fixed range
// checks keep it small enough to inline into those loops.
//
// The zero PCIndex has no slots.
type PCIndex struct {
	lo0, span0 uint64 // first range [lo0, lo0+span0): slots [0, span0/InstrSize)
	lo1, span1 uint64 // second range: its slots follow the first's
}

// NewPCIndex builds an index over ranges, in any order.  Each range is
// rounded out to instruction alignment; overlapping and touching ranges
// merge.  The two lowest merged ranges that fit within maxSlots in total
// get slots, and every other range is left to the caller's fallback.
func NewPCIndex(maxSlots int, ranges ...CodeRange) PCIndex {
	rs := make([]CodeRange, 0, len(ranges))
	for _, r := range ranges {
		lo := r.Lo &^ (InstrSize - 1)
		hi := (r.Hi + InstrSize - 1) &^ (InstrSize - 1)
		if hi < r.Hi { // rounding up wrapped past 2^64
			hi = r.Hi &^ (InstrSize - 1)
		}
		if hi > lo {
			rs = append(rs, CodeRange{lo, hi})
		}
	}
	slices.SortFunc(rs, func(a, b CodeRange) int { return cmp.Compare(a.Lo, b.Lo) })
	merged := rs[:0]
	for _, r := range rs {
		if n := len(merged); n > 0 && r.Lo <= merged[n-1].Hi {
			merged[n-1].Hi = max(merged[n-1].Hi, r.Hi)
			continue
		}
		merged = append(merged, r)
	}
	var x PCIndex
	budget := uint64(max(maxSlots, 0))
	n := 0
	for _, r := range merged {
		if n == pcIndexRanges {
			break
		}
		slots := (r.Hi - r.Lo) / InstrSize
		if slots > budget {
			continue
		}
		budget -= slots
		if n == 0 {
			x.lo0, x.span0 = r.Lo, r.Hi-r.Lo
		} else {
			x.lo1, x.span1 = r.Lo, r.Hi-r.Lo
		}
		n++
	}
	return x
}

// Slot returns pc's dense slot, or ok=false when pc lies outside both
// indexed ranges or is not instruction-aligned.  Range starts are
// aligned, so an offset's alignment is the pc's.
func (x *PCIndex) Slot(pc uint64) (int, bool) {
	if off := pc - x.lo0; off < x.span0 && off%InstrSize == 0 {
		return int(off / InstrSize), true
	}
	if off := pc - x.lo1; off < x.span1 && off%InstrSize == 0 {
		return int((x.span0 + off) / InstrSize), true
	}
	return 0, false
}

// Len returns the number of slots, the length a table indexed through x
// needs.
func (x *PCIndex) Len() int { return int((x.span0 + x.span1) / InstrSize) }
