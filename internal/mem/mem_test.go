package mem_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"tquad/internal/mem"
)

// TestWriteReadRoundTrip: what is written is read back, at any address,
// including across page boundaries.
func TestWriteReadRoundTrip(t *testing.T) {
	f := func(addr uint64, data []byte) bool {
		if len(data) > 3*mem.PageSize {
			data = data[:3*mem.PageSize]
		}
		m := mem.New()
		m.Write(addr, data)
		got := make([]byte, len(data))
		m.Read(addr, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAgainstReferenceMap: a random mixed workload behaves exactly like a
// plain map[addr]byte.
func TestAgainstReferenceMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := mem.New()
	ref := make(map[uint64]byte)
	// Confine to a window that straddles several pages.
	base := uint64(0x7ffc_0000)
	for i := 0; i < 20000; i++ {
		addr := base + uint64(rng.Intn(5*mem.PageSize))
		switch rng.Intn(3) {
		case 0:
			b := byte(rng.Intn(256))
			m.SetByte(addr, b)
			ref[addr] = b
		case 1:
			if got, want := m.ByteAt(addr), ref[addr]; got != want {
				t.Fatalf("addr %#x: got %d want %d", addr, got, want)
			}
		case 2:
			n := rng.Intn(64) + 1
			v := rng.Uint64()
			size := []int{1, 2, 4, 8}[rng.Intn(4)]
			_ = n
			if err := m.WriteUint(addr, v, size); err != nil {
				t.Fatalf("WriteUint(%#x, %d): %v", addr, size, err)
			}
			for k := 0; k < size; k++ {
				ref[addr+uint64(k)] = byte(v >> (8 * k))
			}
		}
	}
	for addr, want := range ref {
		if got := m.ByteAt(addr); got != want {
			t.Fatalf("final state addr %#x: got %d want %d", addr, got, want)
		}
	}
}

func TestUntouchedMemoryReadsZero(t *testing.T) {
	m := mem.New()
	if m.ByteAt(0xdeadbeef) != 0 {
		t.Errorf("untouched byte not zero")
	}
	buf := make([]byte, 100)
	for i := range buf {
		buf[i] = 0xff
	}
	m.Read(1<<40, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
	if m.PageCount() != 0 {
		t.Errorf("reads must not materialise pages (got %d)", m.PageCount())
	}
}

func TestUintWidths(t *testing.T) {
	m := mem.New()
	const v = uint64(0x1122334455667788)
	for _, size := range []int{1, 2, 4, 8} {
		addr := uint64(size * 100)
		if err := m.WriteUint(addr, v, size); err != nil {
			t.Fatalf("WriteUint size %d: %v", size, err)
		}
		got, err := m.ReadUint(addr, size)
		if err != nil {
			t.Fatalf("ReadUint size %d: %v", size, err)
		}
		want := v
		if size < 8 {
			want = v & (1<<(8*size) - 1)
		}
		if got != want {
			t.Errorf("size %d: got %#x want %#x", size, got, want)
		}
	}
	// Little-endian layout.
	m.WriteUint64(0, 0x0102030405060708)
	if m.ByteAt(0) != 0x08 || m.ByteAt(7) != 0x01 {
		t.Errorf("not little-endian: first=%#x last=%#x", m.ByteAt(0), m.ByteAt(7))
	}
}

func TestCrossPageWord(t *testing.T) {
	m := mem.New()
	addr := uint64(mem.PageSize - 3) // straddles the first page boundary
	m.WriteUint64(addr, 0xcafebabe12345678)
	if got := m.ReadUint64(addr); got != 0xcafebabe12345678 {
		t.Fatalf("cross-page word: got %#x", got)
	}
	if m.PageCount() != 2 {
		t.Errorf("expected 2 pages, got %d", m.PageCount())
	}
}

// TestFootprintCountsPages: only touched pages are materialised, and
// the footprint is their count times the page size.
func TestFootprintCountsPages(t *testing.T) {
	m := mem.New()
	for _, addr := range []uint64{5 * mem.PageSize, 1 * mem.PageSize, 9*mem.PageSize + 7} {
		m.SetByte(addr, 1)
	}
	if m.PageCount() != 3 || m.Footprint() != 3*mem.PageSize {
		t.Errorf("page count %d, footprint %d; want 3 pages", m.PageCount(), m.Footprint())
	}
}

func TestZeroValueUsable(t *testing.T) {
	var m mem.Memory
	m.SetByte(123, 7)
	if m.ByteAt(123) != 7 {
		t.Fatalf("zero-value Memory unusable")
	}
}

// TestBadAccessSizeIsError: unsupported widths surface as typed errors,
// never panics, and leave memory untouched.
func TestBadAccessSizeIsError(t *testing.T) {
	m := mem.New()
	for _, size := range []int{0, 3, 5, 7, 16, -1} {
		if _, err := m.ReadUint(0, size); err == nil {
			t.Errorf("ReadUint size %d: expected error", size)
		} else {
			var ase *mem.AccessSizeError
			if !errors.As(err, &ase) || ase.Size != size {
				t.Errorf("ReadUint size %d: err = %v, want AccessSizeError", size, err)
			}
		}
		if err := m.WriteUint(0, 0xff, size); err == nil {
			t.Errorf("WriteUint size %d: expected error", size)
		}
	}
	if m.PageCount() != 0 {
		t.Errorf("failed accesses materialised %d pages", m.PageCount())
	}
}
