// Package shadow provides the shadow-memory data structures behind QUAD's
// producer/consumer analysis: a last-writer map tracking, for every guest
// byte, which kernel most recently produced it, and paged address sets for
// unique-memory-address (UnMA) accounting.
//
// Both structures are sparse and paged (4 KiB granules mirroring the guest
// memory layout), so the cost is proportional to the bytes the workload
// actually touches; a last-writer page that one kernel wrote in full
// shrinks to that kernel's id.  Both remember the last page they looked
// up, and their range operations work a page span at a time, so an
// access that stays on the page before it costs no map lookup at all.
package shadow

import "math/bits"

// PageBits / PageSize match the guest memory page geometry.
const (
	PageBits = 12
	PageSize = 1 << PageBits
	offMask  = PageSize - 1
)

// noPage is a page index no address maps to (addr>>PageBits < 1<<52):
// the empty value of the last-page memos.
const noPage = ^uint64(0)

// NoOwner marks a byte that no tracked kernel has written yet.
const NoOwner uint16 = 0

// pageSpan splits [addr, addr+size) at addr's page boundary: it returns
// addr's page index, addr's offset in that page and the number of the
// range's bytes that lie in it.
func pageSpan(addr uint64, size int) (idx uint64, off, n int) {
	off = int(addr & offMask)
	return addr >> PageBits, off, min(size, PageSize-off)
}

// Owners maps every guest byte to the id of the kernel that last wrote
// it.  Ids are small integers assigned by the tool (0 is reserved for
// "unknown").
type Owners struct {
	pages map[uint64]*ownerPage
	// lastIdx/lastPage memoise the most recent page lookup, a nil
	// lastPage included: materialise keeps them current when it creates
	// a page.
	lastIdx  uint64
	lastPage *ownerPage
}

// ownerPage is one page of the last-writer map: per-byte owners, or —
// with bytes nil — one owner for the whole page.  Most written guest
// memory is pages one kernel filled (the wfs output buffer alone is
// hundreds), and holding those per byte would grow the map by 8 KiB a
// page for the rest of the run.  dirty counts the bytes written since
// the page last checked whether its writer now owns all of it, so that
// check costs at most one compare per byte written.
type ownerPage struct {
	bytes *[PageSize]uint16
	owner uint16
	dirty int
}

// NewOwners returns an empty last-writer map.
func NewOwners() *Owners {
	return &Owners{pages: make(map[uint64]*ownerPage), lastIdx: noPage}
}

// lookup returns page idx, or nil when it is not materialised.
func (o *Owners) lookup(idx uint64) *ownerPage {
	if idx != o.lastIdx {
		o.lastIdx, o.lastPage = idx, o.pages[idx]
	}
	return o.lastPage
}

// materialise returns page idx, creating it (owned by NoOwner) if
// needed.
func (o *Owners) materialise(idx uint64) *ownerPage {
	p := o.lookup(idx)
	if p == nil {
		p = new(ownerPage)
		o.pages[idx] = p
		o.lastPage = p
	}
	return p
}

// SetRange records owner as the producer of [addr, addr+size).
func (o *Owners) SetRange(addr uint64, size int, owner uint16) {
	for size > 0 {
		idx, off, n := pageSpan(addr, size)
		if p := o.materialise(idx); p.bytes != nil || p.owner != owner {
			if p.bytes == nil {
				p.split()
			}
			span := p.bytes[off : off+n]
			for i := range span {
				span[i] = owner
			}
			if p.dirty += n; p.dirty >= PageSize {
				p.fold(owner)
			}
		}
		addr += uint64(n)
		size -= n
	}
}

// split gives a page that one owner holds per-byte owners.
func (p *ownerPage) split() {
	p.bytes = new([PageSize]uint16)
	if p.owner != NoOwner {
		for i := range p.bytes {
			p.bytes[i] = p.owner
		}
	}
}

// fold drops the page's per-byte owners if owner, its latest writer,
// now holds every byte.
func (p *ownerPage) fold(owner uint16) {
	p.dirty = 0
	for _, b := range p.bytes {
		if b != owner {
			return
		}
	}
	p.bytes, p.owner = nil, owner
}

// Span returns the producers of the leading bytes of [addr, addr+size)
// that share addr's page, and how many bytes that is (n, at least 1 for
// a positive size).  owners is nil when all n bytes have one producer,
// owner — NoOwner when no byte of the page was ever written.  Callers
// walk a range page by page, advancing addr by n.
func (o *Owners) Span(addr uint64, size int) (owners []uint16, owner uint16, n int) {
	idx, off, n := pageSpan(addr, size)
	if p := o.lookup(idx); p != nil {
		if p.bytes != nil {
			return p.bytes[off : off+n], NoOwner, n
		}
		owner = p.owner
	}
	return nil, owner, n
}

// AddrSet is a sparse set of guest addresses with an incrementally
// maintained cardinality: the UnMA counters of the paper.
type AddrSet struct {
	pages map[uint64]*[PageSize / 8]byte
	count uint64
	// lastIdx/lastPage memoise the most recent page lookup.
	lastIdx  uint64
	lastPage *[PageSize / 8]byte
}

// NewAddrSet returns an empty set.
func NewAddrSet() *AddrSet {
	return &AddrSet{pages: make(map[uint64]*[PageSize / 8]byte), lastIdx: noPage}
}

// materialise returns the bitmap of page idx, creating it if needed.
func (s *AddrSet) materialise(idx uint64) *[PageSize / 8]byte {
	if idx != s.lastIdx {
		p := s.pages[idx]
		if p == nil {
			p = new([PageSize / 8]byte)
			s.pages[idx] = p
		}
		s.lastIdx, s.lastPage = idx, p
	}
	return s.lastPage
}

// AddRange inserts [addr, addr+size).  It sets the page bitmap a byte
// (eight addresses) at a time and counts only the bits that were clear.
func (s *AddrSet) AddRange(addr uint64, size int) {
	for size > 0 {
		idx, off, n := pageSpan(addr, size)
		p := s.materialise(idx)
		for end := off + n; off < end; {
			bit := off & 7
			k := min(8-bit, end-off)
			mask := byte((1<<k - 1) << bit)
			b := &p[off>>3]
			s.count += uint64(bits.OnesCount8(mask &^ *b))
			*b |= mask
			off += k
		}
		addr += uint64(n)
		size -= n
	}
}

// Count returns the set cardinality (the UnMA figure).
func (s *AddrSet) Count() uint64 { return s.count }
