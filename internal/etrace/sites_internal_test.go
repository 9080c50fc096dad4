package etrace

import (
	"runtime"
	"testing"
)

// TestConsumerSitesSizedToRoutines: a consumer's dense site table holds
// one slot per instruction of the header's main and library routines,
// so a header laid out like the WFS guest's (main code at 0x10000,
// libc at 0x800000) costs kilobytes per consumer, not the ~8.3 MB a
// table spanning the gap between them costs.  Pcs in the gap, past a
// range or unaligned still resolve through the site map.
func TestConsumerSitesSizedToRoutines(t *testing.T) {
	hdr := header{routines: []Routine{
		{Name: "main", Entry: 0x10000, End: 0x12000, Main: true},
		{Name: "kernel", Entry: 0x12000, End: 0x148e0, Main: true},
		{Name: "memcpy", Entry: 0x800000, End: 0x800400},
		{Name: "sqrt", Entry: 0x800400, End: 0x800688},
	}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := newConsumer(hdr)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Errorf("newConsumer allocated %d bytes, want < 256 KiB", got)
	}
	const code = (0x148e0-0x10000)/8 + (0x800688-0x800000)/8
	if got := len(c.siteArr); got != code {
		t.Errorf("site table has %d slots, want %d (the routines' instructions)", got, code)
	}
	for _, pc := range []uint64{0x10000, 0x148d8, 0x148e0, 0x400000, 0x800680, 0x800688, 0x10004} {
		st := &site{}
		c.setSite(pc, st)
		if c.site(pc) != st {
			t.Errorf("site(%#x) does not return the site set there", pc)
		}
	}
	if got := len(c.sites); got != 4 {
		t.Errorf("%d pcs in the site map, want 4 (gap, two range ends, unaligned)", got)
	}
}
