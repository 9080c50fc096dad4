package shadow_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tquad/internal/shadow"
)

// TestOwnersAgainstReferenceMap: the paged last-writer table behaves
// exactly like the naive map under a random workload, including across
// page boundaries.
func TestOwnersAgainstReferenceMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	paged := shadow.NewOwners()
	ref := newMapOwners()
	base := uint64(0x10000) - 64 // straddle a page boundary
	for i := 0; i < 30000; i++ {
		addr := base + uint64(rng.Intn(3*shadow.PageSize))
		if rng.Intn(2) == 0 {
			size := rng.Intn(16) + 1
			owner := uint16(rng.Intn(100))
			paged.SetRange(addr, size, owner)
			ref.SetRange(addr, size, owner)
		} else if paged.Owner(addr) != ref.Owner(addr) {
			t.Fatalf("addr %#x: paged %d vs map %d", addr, paged.Owner(addr), ref.Owner(addr))
		}
	}
}

func TestOwnersDefaultsToNoOwner(t *testing.T) {
	o := shadow.NewOwners()
	if o.Owner(12345) != shadow.NoOwner {
		t.Fatalf("fresh shadow memory has an owner")
	}
	if o.PageCount() != 0 {
		t.Fatalf("read materialised a page")
	}
}

func TestOwnerOverwrite(t *testing.T) {
	o := shadow.NewOwners()
	o.SetRange(100, 8, 1)
	o.SetRange(104, 8, 2) // overlap: bytes 104..111 change hands
	for a := uint64(100); a < 104; a++ {
		if o.Owner(a) != 1 {
			t.Fatalf("byte %d owner %d, want 1", a, o.Owner(a))
		}
	}
	for a := uint64(104); a < 112; a++ {
		if o.Owner(a) != 2 {
			t.Fatalf("byte %d owner %d, want 2", a, o.Owner(a))
		}
	}
}

// TestOwnersFoldWholePages: a page one kernel writes in full keeps one
// owner instead of per-byte owners, whatever order it was written in,
// and splits back into per-byte owners when another kernel writes part
// of it — with every byte's owner matching the reference map throughout.
func TestOwnersFoldWholePages(t *testing.T) {
	const base = 0x40000
	o := shadow.NewOwners()
	ref := newMapOwners()
	set := func(addr uint64, size int, owner uint16) {
		o.SetRange(addr, size, owner)
		ref.SetRange(addr, size, owner)
	}
	check := func(stage string, perByte int) {
		t.Helper()
		for a := uint64(base - 8); a < base+3*shadow.PageSize+8; a++ {
			if o.Owner(a) != ref.Owner(a) {
				t.Fatalf("%s: addr %#x: owner %d, want %d", stage, a, o.Owner(a), ref.Owner(a))
			}
		}
		if got := o.PerBytePages(); got != perByte {
			t.Fatalf("%s: %d pages hold per-byte owners, want %d", stage, got, perByte)
		}
	}
	// Two pages filled in ascending 8-byte writes, a third in a strided
	// order, the first of them starting mid-page: each folds once full.
	for a := uint64(base + 64); a < base+2*shadow.PageSize; a += 8 {
		set(a, 8, 1)
	}
	check("page 0 partly written", 1)
	set(base, 64, 1)
	for stride := uint64(0); stride < 64; stride += 8 {
		for a := base + 2*shadow.PageSize + stride; a < base+3*shadow.PageSize; a += 64 {
			set(a, 8, 2)
		}
	}
	check("three pages filled", 0)
	set(base+shadow.PageSize-4, 8, 3) // straddles pages 0 and 1
	check("straddling overwrite", 2)
	for a := uint64(base); a < base+shadow.PageSize; a += 8 {
		set(a, 8, 3)
	}
	check("page 0 rewritten", 1)
}

// TestAddrSetCountMatchesReference: the incrementally-maintained UnMA
// cardinality always equals the true set size.
func TestAddrSetCountMatchesReference(t *testing.T) {
	f := func(addrs []uint32) bool {
		s := shadow.NewAddrSet()
		ref := make(map[uint64]bool)
		for _, a32 := range addrs {
			a := uint64(a32) % (8 * shadow.PageSize)
			added := s.Add(a)
			if added == ref[a] {
				return false // Add must report newness correctly
			}
			ref[a] = true
		}
		return s.Count() == uint64(len(ref))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAddrSetContains(t *testing.T) {
	s := shadow.NewAddrSet()
	s.AddRange(1000, 16)
	for a := uint64(999); a <= 1016; a++ {
		want := a >= 1000 && a < 1016
		if s.Contains(a) != want {
			t.Errorf("Contains(%d) = %v, want %v", a, s.Contains(a), want)
		}
	}
	if s.Count() != 16 {
		t.Errorf("Count = %d, want 16", s.Count())
	}
	// Adding the same range again must not change the count.
	s.AddRange(1000, 16)
	if s.Count() != 16 {
		t.Errorf("idempotent AddRange broke the count: %d", s.Count())
	}
}

func TestAddrSetCrossesPages(t *testing.T) {
	s := shadow.NewAddrSet()
	start := uint64(shadow.PageSize) - 8
	s.AddRange(start, 16)
	if s.Count() != 16 {
		t.Fatalf("cross-page range count = %d", s.Count())
	}
	if !s.Contains(start) || !s.Contains(start+15) {
		t.Fatalf("cross-page membership broken")
	}
}
