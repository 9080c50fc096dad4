package shadow

// Per-address accessors that only the tests use: production code works
// on ranges (SetRange, Span, AddRange).

// Owner returns the producer of the byte at addr.
func (o *Owners) Owner(addr uint64) uint16 {
	owners, owner, _ := o.Span(addr, 1)
	if owners != nil {
		return owners[0]
	}
	return owner
}

// PerBytePages returns the number of pages that hold per-byte owners.
func (o *Owners) PerBytePages() int {
	n := 0
	for _, p := range o.pages {
		if p.bytes != nil {
			n++
		}
	}
	return n
}

// PageCount returns the number of shadow pages materialised.
func (o *Owners) PageCount() int { return len(o.pages) }

// Add inserts addr, reporting whether it was newly added.
func (s *AddrSet) Add(addr uint64) bool {
	before := s.count
	s.AddRange(addr, 1)
	return s.count != before
}

// Contains reports set membership without materialising a page.
func (s *AddrSet) Contains(addr uint64) bool {
	p := s.pages[addr>>PageBits]
	if p == nil {
		return false
	}
	off := addr & offMask
	return p[off>>3]&(byte(1)<<(off&7)) != 0
}
