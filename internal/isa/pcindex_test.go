package isa_test

import (
	"testing"

	"tquad/internal/isa"
)

// TestPCIndex pins the pc→slot mapping: slots are dense over the
// ranges' instructions, the lower range's first; a pc just before or
// just past a range, in the gap between ranges, or not
// instruction-aligned has no slot; overlapping and touching ranges
// merge; ranges past the index's two, or past the slot cap, are left
// out.
func TestPCIndex(t *testing.T) {
	const out = -1 // no slot
	type probe struct {
		pc   uint64
		slot int
	}
	cases := []struct {
		name     string
		maxSlots int
		ranges   []isa.CodeRange
		wantLen  int
		probes   []probe
	}{
		{
			name: "main image and library", maxSlots: 1 << 20,
			ranges:  []isa.CodeRange{{0x10000, 0x148e0}, {0x800000, 0x800688}},
			wantLen: 2541,
			probes: []probe{
				{0x10000, 0}, {0x10008, 1}, {0x148d8, 2331}, {0x800000, 2332}, {0x800680, 2540},
				{0xfff8, out}, {0x148e0, out}, {0x148e8, out}, {0x400000, out},
				{0x7ffff8, out}, {0x800688, out}, {0x10004, out}, {0x800001, out}, {0, out},
			},
		},
		{
			name: "given in reverse", maxSlots: 1 << 20,
			ranges:  []isa.CodeRange{{0x800000, 0x800688}, {0x10000, 0x148e0}},
			wantLen: 2541,
			probes:  []probe{{0x10000, 0}, {0x800000, 2332}, {0x800688, out}},
		},
		{
			name: "overlapping", maxSlots: 1 << 20,
			ranges:  []isa.CodeRange{{0x1000, 0x1040}, {0x1020, 0x1080}},
			wantLen: 16,
			probes:  []probe{{0x1000, 0}, {0x1040, 8}, {0x1078, 15}, {0x1080, out}},
		},
		{
			name: "one image loaded twice at one base", maxSlots: 1 << 20,
			ranges:  []isa.CodeRange{{0x1000, 0x1018}, {0x1000, 0x1018}, {0x1000, 0x1010}},
			wantLen: 3,
			probes:  []probe{{0x1000, 0}, {0x1010, 2}, {0x1018, out}},
		},
		{
			name: "touching ranges merge and free the second", maxSlots: 1 << 20,
			ranges:  []isa.CodeRange{{0x1000, 0x1010}, {0x1010, 0x1020}, {0x2000, 0x2008}},
			wantLen: 5,
			probes:  []probe{{0x1008, 1}, {0x1010, 2}, {0x1018, 3}, {0x2000, 4}, {0x1020, out}, {0x2008, out}},
		},
		{
			name: "more ranges than capacity", maxSlots: 1 << 20,
			ranges:  []isa.CodeRange{{0x3000, 0x3010}, {0x1000, 0x1010}, {0x2000, 0x2010}},
			wantLen: 4,
			probes:  []probe{{0x1000, 0}, {0x1008, 1}, {0x2000, 2}, {0x2008, 3}, {0x3000, out}, {0x3008, out}, {0x1010, out}, {0x2010, out}},
		},
		{
			name: "unaligned bounds round out", maxSlots: 1 << 20,
			ranges:  []isa.CodeRange{{0x1003, 0x100d}},
			wantLen: 2,
			probes:  []probe{{0x1000, 0}, {0x1008, 1}, {0x1003, out}, {0x100c, out}, {0x1010, out}},
		},
		{
			name: "a range past the slot cap is left out", maxSlots: 4,
			ranges:  []isa.CodeRange{{0x1000, 0x1040}, {0x2000, 0x2010}, {0x3000, 0x3010}},
			wantLen: 4,
			probes:  []probe{{0x2000, 0}, {0x3008, 3}, {0x1000, out}},
		},
		{
			name: "cap counts both ranges", maxSlots: 3,
			ranges:  []isa.CodeRange{{0x1000, 0x1010}, {0x2000, 0x2010}},
			wantLen: 2,
			probes:  []probe{{0x1008, 1}, {0x2000, out}},
		},
		{
			name: "empty, inverted and wrapping ranges", maxSlots: 1 << 20,
			ranges:  []isa.CodeRange{{0x1000, 0x1000}, {0x2000, 0x1000}, {^uint64(0) - 15, ^uint64(0)}},
			wantLen: 1,
			probes:  []probe{{^uint64(0) - 15, 0}, {^uint64(0) - 7, out}, {0x1000, out}},
		},
		{
			name: "no ranges", maxSlots: 1 << 20,
			probes: []probe{{0, out}, {0x1000, out}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := isa.NewPCIndex(tc.maxSlots, tc.ranges...)
			if got := x.Len(); got != tc.wantLen {
				t.Errorf("Len = %d, want %d", got, tc.wantLen)
			}
			for _, p := range tc.probes {
				slot, ok := x.Slot(p.pc)
				if !ok {
					slot = out
				}
				if slot != p.slot {
					t.Errorf("Slot(%#x) = %d, want %d", p.pc, slot, p.slot)
				}
			}
			// Every slot belongs to exactly one aligned pc of the ranges.
			seen := make(map[int]uint64)
			for _, r := range tc.ranges {
				for pc := r.Lo &^ 7; pc < r.Hi && pc >= r.Lo&^7; pc += isa.InstrSize {
					slot, ok := x.Slot(pc)
					if !ok {
						continue
					}
					if slot < 0 || slot >= x.Len() {
						t.Fatalf("Slot(%#x) = %d outside [0, %d)", pc, slot, x.Len())
					}
					if prev, dup := seen[slot]; dup && prev != pc {
						t.Fatalf("slot %d shared by %#x and %#x", slot, prev, pc)
					}
					seen[slot] = pc
				}
			}
			if len(seen) != x.Len() {
				t.Errorf("%d of %d slots reachable", len(seen), x.Len())
			}
		})
	}

	var zero isa.PCIndex
	if _, ok := zero.Slot(0); ok || zero.Len() != 0 {
		t.Error("zero PCIndex has slots")
	}
}
