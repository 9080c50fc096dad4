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
