package shadow_test

import (
	"testing"

	"tquad/internal/shadow"
)

// mapOwners is the naive map[addr]owner last-writer table: the reference
// TestOwnersAgainstReferenceMap checks the paged table against, and the
// other side of BenchmarkAblation_ShadowPagedVsMap.
type mapOwners struct {
	m map[uint64]uint16
}

func newMapOwners() *mapOwners { return &mapOwners{m: make(map[uint64]uint16)} }

// SetRange records owner as the producer of [addr, addr+size).
func (o *mapOwners) SetRange(addr uint64, size int, owner uint16) {
	for i := 0; i < size; i++ {
		o.m[addr+uint64(i)] = owner
	}
}

// Owner returns the producer of the byte at addr.
func (o *mapOwners) Owner(addr uint64) uint16 { return o.m[addr] }

// BenchmarkAblation_ShadowPagedVsMap compares the paged shadow memory
// against the naive map-per-address representation on a realistic access
// pattern.
func BenchmarkAblation_ShadowPagedVsMap(b *testing.B) {
	const span = 1 << 20
	b.Run("paged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := shadow.NewOwners()
			for a := uint64(0); a < span; a += 8 {
				o.SetRange(a, 8, uint16(a%7+1))
			}
			var sum uint64
			for a := uint64(0); a < span; a += 8 {
				sum += uint64(o.Owner(a))
			}
			_ = sum
		}
	})
	b.Run("map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := newMapOwners()
			for a := uint64(0); a < span; a += 8 {
				o.SetRange(a, 8, uint16(a%7+1))
			}
			var sum uint64
			for a := uint64(0); a < span; a += 8 {
				sum += uint64(o.Owner(a))
			}
			_ = sum
		}
	})
}
