// Package mem implements the sparse, paged guest memory used by the
// virtual machine.  Memory is allocated lazily in fixed-size pages so that
// a 64-bit guest address space costs only what the workload actually
// touches — the same technique the shadow-memory package uses for its
// analysis metadata.
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageBits is the base-2 logarithm of the page size.
const PageBits = 12

// PageSize is the size of one page in bytes (4 KiB).
const PageSize = 1 << PageBits

const offMask = PageSize - 1

// Memory is a sparse byte-addressable guest memory.  The zero value is
// ready to use.  Memory is not safe for concurrent use; the VM is
// single-threaded like the instrumented guest in the paper.
type Memory struct {
	pages map[uint64]*[PageSize]byte

	// Direct-mapped translation cache for the typed-access fast path:
	// the pages most recently touched by LoadLE/StoreLE, indexed by the
	// low bits of the page number.  Guest access streams interleave a
	// handful of pages (stack, a few array panels), so a small
	// direct-mapped array turns the per-access map lookup into an index
	// and a compare.  Pages are never freed or replaced once
	// materialised (Zero clears bytes but keeps the page), so a cached
	// pointer can never go stale.
	tlb [tlbSize]tlbEntry
}

const tlbSize = 64 // power of two

type tlbEntry struct {
	idx  uint64
	page *[PageSize]byte
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte)}
}

func (m *Memory) page(addr uint64) *[PageSize]byte {
	if m.pages == nil {
		m.pages = make(map[uint64]*[PageSize]byte)
	}
	idx := addr >> PageBits
	p := m.pages[idx]
	if p == nil {
		p = new([PageSize]byte)
		m.pages[idx] = p
	}
	return p
}

// peek returns the page for addr if it exists, without allocating.
func (m *Memory) peek(addr uint64) *[PageSize]byte {
	return m.pages[addr>>PageBits]
}

// PageCount returns the number of pages materialised so far.
func (m *Memory) PageCount() int { return len(m.pages) }

// Footprint returns the number of bytes of guest memory backed by real
// pages.
func (m *Memory) Footprint() int64 { return int64(len(m.pages)) * PageSize }

// ByteAt returns the byte at addr (0 for untouched memory).
func (m *Memory) ByteAt(addr uint64) byte {
	if p := m.peek(addr); p != nil {
		return p[addr&offMask]
	}
	return 0
}

// SetByte stores b at addr.
func (m *Memory) SetByte(addr uint64, b byte) {
	m.page(addr)[addr&offMask] = b
}

// Read fills dst with the bytes starting at addr.
func (m *Memory) Read(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & offMask
		n := PageSize - int(off)
		if n > len(dst) {
			n = len(dst)
		}
		if p := m.peek(addr); p != nil {
			copy(dst[:n], p[off:int(off)+n])
		} else {
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// Write stores src starting at addr.
func (m *Memory) Write(addr uint64, src []byte) {
	for len(src) > 0 {
		off := addr & offMask
		n := PageSize - int(off)
		if n > len(src) {
			n = len(src)
		}
		copy(m.page(addr)[off:int(off)+n], src[:n])
		src = src[n:]
		addr += uint64(n)
	}
}

// AccessSizeError reports a typed access with an unsupported width.  It
// is an error value rather than a panic so that a corrupt access size —
// however it arises — degrades into a per-run failure (the VM converts
// it into a Trap) instead of killing the whole process.  Contrast the
// internal/hl builder, which panics on duplicate symbols and bad
// arities: those are programmer errors at guest-construction time,
// before any run starts, and have no run to fail.
type AccessSizeError struct {
	Size int
}

func (e *AccessSizeError) Error() string {
	return fmt.Sprintf("mem: bad access size %d", e.Size)
}

// ReadUint reads a little-endian unsigned integer of the given byte size
// (1, 2, 4 or 8) at addr.
func (m *Memory) ReadUint(addr uint64, size int) (uint64, error) {
	var buf [8]byte
	switch size {
	case 1, 2, 4, 8:
		m.Read(addr, buf[:size])
	default:
		return 0, &AccessSizeError{Size: size}
	}
	switch size {
	case 1:
		return uint64(buf[0]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(buf[:2])), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(buf[:4])), nil
	}
	return binary.LittleEndian.Uint64(buf[:8]), nil
}

// WriteUint stores the low `size` bytes of v at addr, little-endian.
func (m *Memory) WriteUint(addr uint64, v uint64, size int) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	switch size {
	case 1, 2, 4, 8:
		m.Write(addr, buf[:size])
		return nil
	}
	return &AccessSizeError{Size: size}
}

// ReadUint64 reads an 8-byte little-endian word at addr.
func (m *Memory) ReadUint64(addr uint64) uint64 {
	var buf [8]byte
	m.Read(addr, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// WriteUint64 stores an 8-byte little-endian word at addr.
func (m *Memory) WriteUint64(addr uint64, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	m.Write(addr, buf[:])
}

// lookupPage returns the page containing addr without allocating,
// refreshing the translation cache on a page-table hit.
func (m *Memory) lookupPage(addr uint64) *[PageSize]byte {
	idx := addr >> PageBits
	e := &m.tlb[idx&(tlbSize-1)]
	if e.page != nil && e.idx == idx {
		return e.page
	}
	p := m.pages[idx]
	if p != nil {
		e.idx, e.page = idx, p
	}
	return p
}

// touchPage returns the page containing addr, materialising it if needed,
// and refreshes the translation cache.
func (m *Memory) touchPage(addr uint64) *[PageSize]byte {
	idx := addr >> PageBits
	e := &m.tlb[idx&(tlbSize-1)]
	if e.page != nil && e.idx == idx {
		return e.page
	}
	p := m.page(addr)
	e.idx, e.page = idx, p
	return p
}

// LoadLE reads a little-endian unsigned integer of size 1, 2, 4 or 8
// bytes at addr.  It is the allocation-free fast path behind ReadUint for
// callers that guarantee a valid size (the VM's decoded memory ops);
// untouched memory reads as zero, exactly like Read.
func (m *Memory) LoadLE(addr uint64, size int) uint64 {
	off := addr & offMask
	if off+uint64(size) <= PageSize {
		p := m.lookupPage(addr)
		if p == nil {
			return 0
		}
		switch size {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		}
	}
	v, _ := m.ReadUint(addr, size)
	return v
}

// StoreLE stores the low `size` bytes of v at addr, little-endian — the
// fast path behind WriteUint for callers with a known-valid size.
func (m *Memory) StoreLE(addr uint64, v uint64, size int) {
	off := addr & offMask
	if off+uint64(size) <= PageSize {
		p := m.touchPage(addr)
		switch size {
		case 1:
			p[off] = byte(v)
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
		}
		return
	}
	m.WriteUint(addr, v, size)
}

// Load64 reads an 8-byte little-endian word at addr (ReadUint64, minus
// the intermediate buffer when the access stays within one page).
func (m *Memory) Load64(addr uint64) uint64 {
	return m.LoadLE(addr, 8)
}

// Store64 stores an 8-byte little-endian word at addr.
func (m *Memory) Store64(addr uint64, v uint64) {
	m.StoreLE(addr, v, 8)
}
