// Package memsim is the memory-hierarchy simulator: a configurable
// multi-level cache model (set-associative, LRU, write-back /
// write-allocate, shared line size) backed by a simple DRAM model
// (per-line fill and write-back costs, single open-row buffer).  It
// attaches to a pin.Host exactly like the other profiling tools, so it
// runs unchanged over a live vm.Machine and over recorded event traces —
// which is what lets a sweep evaluate N cache geometries off one guest
// execution.
//
// tQUAD itself reports *demand* bytes per kernel per slice; on real
// hardware the bandwidth a kernel draws from the memory system is shaped
// by the cache hierarchy.  memsim folds the same per-access event stream
// through a hierarchy model and reports, per kernel per time slice, hit
// and miss counts per level and the *effective off-chip bytes* (line
// fills from DRAM plus dirty-line write-backs to DRAM) — the
// miss-bandwidth analogue of the paper's Figure 6/7 series.
//
// The hot path is allocation-free per access: each level is one packed
// []line array indexed by line address (set = lineAddr & mask), probed
// linearly across its ways and reordered in place for LRU; there are no
// maps and no per-access allocations.  Per-kernel slice accounting uses
// the same dense append-only series as internal/core.
package memsim

import (
	"fmt"
	"sort"

	"tquad/internal/callstack"
	"tquad/internal/obs"
	"tquad/internal/pin"
)

// Options configure one attached simulator.
type Options struct {
	// Config is the cache/DRAM geometry (required; validated by Attach).
	Config Config
	// SliceInterval is the time-slice width in guest instructions; it
	// should match the accompanying tQUAD run so the per-slice series
	// align.  Zero selects the core default.
	SliceInterval uint64
	// ExcludeLibs attributes accesses made inside OS/library routines to
	// the pseudo-kernel "(outside)" instead of the calling kernel.  The
	// cache state itself always sees every access — the hierarchy is
	// physical, only the attribution changes.
	ExcludeLibs bool
	// CostAccess is the simulated analysis cost (instruction-equivalents)
	// charged to the host clock per traced access event — the price of
	// running the simulator, analogous to core's CostTrace.  Modelled
	// DRAM time is NOT charged to the clock; it accumulates in the
	// profile's MemCost instead.  Zero selects the default.
	CostAccess uint64
}

// DefaultCostAccess is the per-event analysis cost: walking up to three
// set arrays is costlier than tQUAD's accumulator bump but far cheaper
// than QUAD's shadow walk.
const DefaultCostAccess = 180

// DefaultSliceInterval mirrors core.DefaultSliceInterval.
const DefaultSliceInterval = 100_000

// Outside is the pseudo-kernel charged with accesses that no tracked
// kernel frame claims (startup code, and library code under ExcludeLibs).
const Outside = "(outside)"

// SlicePoint is one kernel's memory-hierarchy activity within one time
// slice — the memsim analogue of core.SlicePoint.
type SlicePoint struct {
	Slice     uint64            // slice index
	Accesses  uint64            // line-granular cache accesses
	Hits      [MaxLevels]uint64 // demand hits per level
	Misses    [MaxLevels]uint64 // demand misses per level
	FillBytes uint64            // bytes filled from DRAM
	WBBytes   uint64            // dirty bytes written back to DRAM
}

// OffChip returns the slice's effective off-chip traffic in bytes.
func (p SlicePoint) OffChip() uint64 { return p.FillBytes + p.WBBytes }

// add folds q into p (totals aggregation).
func (p *SlicePoint) add(q SlicePoint) {
	p.Accesses += q.Accesses
	for i := range p.Hits {
		p.Hits[i] += q.Hits[i]
		p.Misses[i] += q.Misses[i]
	}
	p.FillBytes += q.FillBytes
	p.WBBytes += q.WBBytes
}

// kernelSeries is the dense append-only accumulator (see the identical
// structure in internal/core): points arrive in non-decreasing slice
// order off the monotonic instruction clock, so the series is sorted by
// construction and the common case — same kernel, same slice — is one
// pointer compare.
type kernelSeries struct {
	name   string
	points []SlicePoint
	cur    *SlicePoint
}

func (ks *kernelSeries) at(slice uint64) *SlicePoint {
	if pt := ks.cur; pt != nil && pt.Slice == slice {
		return pt
	}
	ks.points = append(ks.points, SlicePoint{Slice: slice})
	ks.cur = &ks.points[len(ks.points)-1]
	return ks.cur
}

// line is one cache line's metadata.  Lines of a set are stored
// contiguously in LRU order (index 0 = most recently used).
type line struct {
	tag   uint64 // line address
	valid bool
	dirty bool
}

// level is one packed set-associative cache level.
type level struct {
	lines   []line // sets*ways entries; set s occupies [s*ways, (s+1)*ways)
	ways    int
	setMask uint64

	Hits, Misses, Evictions, Writebacks uint64
}

func newLevel(lc LevelConfig) level {
	sets := lc.Sets()
	return level{
		lines:   make([]line, sets*uint64(lc.Ways)),
		ways:    lc.Ways,
		setMask: sets - 1,
	}
}

// probe looks la up; on a hit the line moves to the MRU slot and, when
// write is set, turns dirty (write-back: stores dirty the cached copy).
func (lv *level) probe(la uint64, write bool) bool {
	base := int((la & lv.setMask)) * lv.ways
	set := lv.lines[base : base+lv.ways]
	for i := range set {
		if set[i].valid && set[i].tag == la {
			hit := set[i]
			copy(set[1:i+1], set[:i]) // shift MRU..i-1 down one
			hit.dirty = hit.dirty || write
			set[0] = hit
			return true
		}
	}
	return false
}

// install places la at the MRU slot, evicting the LRU way.  It returns
// the victim so the caller can propagate a dirty write-back.
func (lv *level) install(la uint64, dirty bool) (victimTag uint64, victimDirty, victimValid bool) {
	base := int((la & lv.setMask)) * lv.ways
	set := lv.lines[base : base+lv.ways]
	v := set[lv.ways-1]
	copy(set[1:], set[:lv.ways-1])
	set[0] = line{tag: la, valid: true, dirty: dirty}
	return v.tag, v.dirty, v.valid
}

// markDirty marks la dirty if present (absorbing an inner level's
// write-back) without touching LRU order or the demand counters.
func (lv *level) markDirty(la uint64) bool {
	base := int((la & lv.setMask)) * lv.ways
	set := lv.lines[base : base+lv.ways]
	for i := range set {
		if set[i].valid && set[i].tag == la {
			set[i].dirty = true
			return true
		}
	}
	return false
}

// dramState is the open-row tracker plus traffic counters.
type dramState struct {
	openRow uint64
	hasRow  bool

	Fills, Writebacks, RowHits, RowMisses uint64
}

// Tool is one attached memory-hierarchy simulator.
type Tool struct {
	opts Options
	host pin.Host

	stack  *callstack.Stack
	levels [MaxLevels]level
	nlev   int
	dram   dramState

	lineSize  uint64
	lineShift uint
	rowShift  uint

	series []*kernelSeries
	ids    map[string]uint16
	curKey string        // last attributed kernel name
	curKS  *kernelSeries // its series
	pt     *SlicePoint   // accounting point of the in-flight access

	curSlice uint64
	sliceEnd uint64

	// Event-level counters (the obs group's source).
	Accesses      uint64 // traced access events simulated
	PrefetchSkips uint64 // prefetch events skipped
	MemCost       uint64 // modelled DRAM cost (instruction-equivalents), not charged to the clock
}

// Attach wires a simulator onto the host — a live pin.Engine or an
// etrace.Consumer.  Call before running the machine (or the replay).
func Attach(h pin.Host, opts Options) (*Tool, error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	if opts.SliceInterval == 0 {
		opts.SliceInterval = DefaultSliceInterval
	}
	if opts.CostAccess == 0 {
		opts.CostAccess = DefaultCostAccess
	}
	t := &Tool{
		opts:     opts,
		host:     h,
		nlev:     len(opts.Config.Levels),
		lineSize: uint64(opts.Config.LineSize()),
		series:   []*kernelSeries{nil}, // id 0 reserved
		ids:      make(map[string]uint16),
		sliceEnd: opts.SliceInterval,
	}
	for i, lc := range opts.Config.Levels {
		t.levels[i] = newLevel(lc)
	}
	t.lineShift = uint(shift(t.lineSize))
	t.rowShift = uint(shift(opts.Config.DRAM.RowSize))
	h.InitSymbols()
	t.stack = callstack.New(func(target uint64) (string, bool, bool) {
		rtn, ok := h.RTNFindByAddress(target)
		if !ok {
			return "", false, false
		}
		return rtn.Name(), rtn.IsInMainImage(), true
	}, opts.ExcludeLibs)
	h.INSAddInstrumentFunction(t.instruction)
	return t, nil
}

// shift returns log2 of a power of two.
func shift(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// instruction is the instrumentation routine: call/return events
// maintain the internal call stack, memory references drive the
// hierarchy.
func (t *Tool) instruction(ins *pin.INS) {
	switch {
	case ins.IsCall():
		ins.InsertCall(func(ctx *pin.Context) { t.stack.OnCall(ctx.Target) })
	case ins.IsRet():
		ins.InsertCall(func(ctx *pin.Context) { t.stack.OnReturn() })
	case ins.IsMemoryRead():
		ins.InsertPredicatedCall(func(ctx *pin.Context) { t.access(ctx, false) })
	case ins.IsMemoryWrite():
		ins.InsertPredicatedCall(func(ctx *pin.Context) { t.access(ctx, true) })
	}
}

// access simulates one executed memory reference.
func (t *Tool) access(ctx *pin.Context, write bool) {
	if ctx.Prefetch {
		// The paper's tools return immediately on prefetches; the
		// simulator mirrors that so its access stream matches tQUAD's.
		t.PrefetchSkips++
		return
	}
	t.Accesses++
	t.host.ChargeOverhead(t.opts.CostAccess)
	ic := t.host.ICount()
	if ic >= t.sliceEnd {
		t.curSlice = ic / t.opts.SliceInterval
		t.sliceEnd = (t.curSlice + 1) * t.opts.SliceInterval
	}
	name := Outside
	if fr, ok := t.stack.Current(); ok {
		name = fr.Name
	}
	t.pt = t.seriesFor(name).at(t.curSlice)

	addr := ctx.Addr
	la := addr >> t.lineShift
	last := (addr + uint64(ctx.Size) - 1) >> t.lineShift
	for ; la <= last; la++ {
		t.pt.Accesses++
		t.fetch(0, la, write)
	}
}

// seriesFor resolves the kernel's series, caching the previous
// resolution so back-to-back accesses from the same kernel — the
// overwhelmingly common case — skip the map.
func (t *Tool) seriesFor(name string) *kernelSeries {
	if t.curKS != nil && t.curKey == name {
		return t.curKS
	}
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.series))
		t.ids[name] = id
		t.series = append(t.series, &kernelSeries{name: name})
	}
	t.curKey, t.curKS = name, t.series[id]
	return t.curKS
}

// fetch ensures la is present at level i, recursing outward on a miss
// (write-allocate).  Only the innermost level's copy turns dirty on a
// write; outer levels are filled by reads.
func (t *Tool) fetch(i int, la uint64, write bool) {
	if i == t.nlev {
		t.dramFill(la)
		return
	}
	lv := &t.levels[i]
	if lv.probe(la, write) {
		lv.Hits++
		t.pt.Hits[i]++
		return
	}
	lv.Misses++
	t.pt.Misses[i]++
	t.fetch(i+1, la, false)
	vtag, vdirty, vvalid := lv.install(la, write)
	if vvalid {
		lv.Evictions++
		if vdirty {
			lv.Writebacks++
			t.writeback(i+1, vtag)
		}
	}
}

// writeback sends a dirty victim outward: the first outer level holding
// the line absorbs it (turns dirty); past the last level it pays the
// DRAM write.  Write-backs are attributed to the kernel whose access
// caused the eviction — the standard simulator attribution caveat.
func (t *Tool) writeback(i int, la uint64) {
	for ; i < t.nlev; i++ {
		if t.levels[i].markDirty(la) {
			return
		}
	}
	t.dramWriteback(la)
}

func (t *Tool) dramFill(la uint64) {
	t.rowTouch(la)
	t.dram.Fills++
	t.pt.FillBytes += t.lineSize
	t.MemCost += t.opts.Config.DRAM.FillCost
}

func (t *Tool) dramWriteback(la uint64) {
	t.rowTouch(la)
	t.dram.Writebacks++
	t.pt.WBBytes += t.lineSize
	t.MemCost += t.opts.Config.DRAM.WritebackCost
}

// rowTouch charges the open-row model for one DRAM line transfer.
func (t *Tool) rowTouch(la uint64) {
	row := (la << t.lineShift) >> t.rowShift
	if t.dram.hasRow && t.dram.openRow == row {
		t.dram.RowHits++
		t.MemCost += t.opts.Config.DRAM.RowHitCost
		return
	}
	t.dram.hasRow = true
	t.dram.openRow = row
	t.dram.RowMisses++
	t.MemCost += t.opts.Config.DRAM.RowMissCost
}

// LevelStats are one level's aggregate counters.
type LevelStats struct {
	Name                                string
	Hits, Misses, Evictions, Writebacks uint64
}

// HitRate returns hits/(hits+misses), or 0 for an untouched level.
func (s LevelStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// DRAMStats are the off-chip aggregate counters.
type DRAMStats struct {
	Fills, Writebacks, RowHits, RowMisses uint64
}

// RowHitRate returns the open-row hit fraction.
func (d DRAMStats) RowHitRate() float64 {
	if d.RowHits+d.RowMisses == 0 {
		return 0
	}
	return float64(d.RowHits) / float64(d.RowHits+d.RowMisses)
}

// KernelProfile is one kernel's finished memory-hierarchy record.
type KernelProfile struct {
	Name   string
	Points []SlicePoint // sorted by slice; only touched slices
	Total  SlicePoint   // aggregate over all slices (Slice field unused)
}

// OffChip returns the kernel's total effective off-chip bytes.
func (k *KernelProfile) OffChip() uint64 { return k.Total.OffChip() }

// HitRate returns the kernel's hit rate at the given level.
func (k *KernelProfile) HitRate(level int) float64 {
	h, m := k.Total.Hits[level], k.Total.Misses[level]
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// OffChipSeries expands the kernel's per-slice off-chip bytes into a
// dense vector over [0, numSlices) — the miss-bandwidth variant of the
// Figure 6/7 series.
func (k *KernelProfile) OffChipSeries(numSlices uint64) []uint64 {
	out := make([]uint64, numSlices)
	for _, p := range k.Points {
		if p.Slice < numSlices {
			out[p.Slice] = p.OffChip()
		}
	}
	return out
}

// RangeOffChip sums the kernel's off-chip bytes over slices in
// [start, end) — the phase-table column.
func (k *KernelProfile) RangeOffChip(start, end uint64) uint64 {
	var n uint64
	for _, p := range k.Points {
		if p.Slice >= start && p.Slice < end {
			n += p.OffChip()
		}
	}
	return n
}

// Profile is the finished result of one simulated run.
type Profile struct {
	Config        Config
	SliceInterval uint64
	NumSlices     uint64
	TotalInstr    uint64

	Accesses      uint64 // traced access events
	PrefetchSkips uint64
	MemCost       uint64 // modelled DRAM cost (instruction-equivalents)

	Levels  []LevelStats
	DRAM    DRAMStats
	Kernels []*KernelProfile
}

// OffChipBytes returns the run's total effective off-chip traffic.
func (p *Profile) OffChipBytes() uint64 {
	return (p.DRAM.Fills + p.DRAM.Writebacks) * uint64(p.Config.LineSize())
}

// Kernel returns the named kernel's profile.
func (p *Profile) Kernel(name string) (*KernelProfile, bool) {
	for _, k := range p.Kernels {
		if k.Name == name {
			return k, true
		}
	}
	return nil, false
}

// Snapshot assembles the profile accumulated so far (normally called
// after the machine halts or the replay ends).
func (t *Tool) Snapshot() *Profile {
	ic := t.host.ICount()
	p := &Profile{
		Config:        t.opts.Config,
		SliceInterval: t.opts.SliceInterval,
		NumSlices:     (ic + t.opts.SliceInterval - 1) / t.opts.SliceInterval,
		TotalInstr:    ic,
		Accesses:      t.Accesses,
		PrefetchSkips: t.PrefetchSkips,
		MemCost:       t.MemCost,
		DRAM: DRAMStats{
			Fills: t.dram.Fills, Writebacks: t.dram.Writebacks,
			RowHits: t.dram.RowHits, RowMisses: t.dram.RowMisses,
		},
	}
	for i := 0; i < t.nlev; i++ {
		lv := &t.levels[i]
		p.Levels = append(p.Levels, LevelStats{
			Name: t.opts.Config.Levels[i].Name,
			Hits: lv.Hits, Misses: lv.Misses,
			Evictions: lv.Evictions, Writebacks: lv.Writebacks,
		})
	}
	for id := 1; id < len(t.series); id++ {
		ks := t.series[id]
		kp := &KernelProfile{Name: ks.name, Points: append([]SlicePoint(nil), ks.points...)}
		for _, pt := range kp.Points {
			kp.Total.add(pt)
		}
		p.Kernels = append(p.Kernels, kp)
	}
	sort.Slice(p.Kernels, func(i, j int) bool { return p.Kernels[i].Name < p.Kernels[j].Name })
	return p
}

// PublishMetrics exports the simulator's counter group.  A nil registry
// is a no-op.
func (t *Tool) PublishMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Gauge("tquad_memsim_line_bytes").Set(float64(t.lineSize))
	r.Counter("tquad_memsim_accesses_total").Add(t.Accesses)
	r.Counter("tquad_memsim_prefetch_skipped_total").Add(t.PrefetchSkips)
	r.Counter("tquad_memsim_dram_cost_instr_total").Add(t.MemCost)
	for i := 0; i < t.nlev; i++ {
		name := t.opts.Config.Levels[i].Name
		lv := &t.levels[i]
		r.Counter(obs.Label("tquad_memsim_hits_total", "level", name)).Add(lv.Hits)
		r.Counter(obs.Label("tquad_memsim_misses_total", "level", name)).Add(lv.Misses)
		r.Counter(obs.Label("tquad_memsim_evictions_total", "level", name)).Add(lv.Evictions)
		r.Counter(obs.Label("tquad_memsim_writebacks_total", "level", name)).Add(lv.Writebacks)
	}
	r.Counter("tquad_memsim_dram_fills_total").Add(t.dram.Fills)
	r.Counter("tquad_memsim_dram_writebacks_total").Add(t.dram.Writebacks)
	r.Counter(obs.Label("tquad_memsim_dram_row_total", "result", "hit")).Add(t.dram.RowHits)
	r.Counter(obs.Label("tquad_memsim_dram_row_total", "result", "miss")).Add(t.dram.RowMisses)
	r.Counter("tquad_memsim_offchip_bytes_total").Add((t.dram.Fills + t.dram.Writebacks) * t.lineSize)
}

// String summarises the hierarchy outcome in one line per level plus the
// DRAM tail — the end-of-run digest the CLI prints.
func (p *Profile) String() string {
	s := fmt.Sprintf("memory hierarchy (%s):\n", p.Config.Key())
	for _, lv := range p.Levels {
		s += fmt.Sprintf("  %-4s hits %12d  misses %12d  hit rate %6.2f%%  writebacks %10d\n",
			lv.Name, lv.Hits, lv.Misses, 100*lv.HitRate(), lv.Writebacks)
	}
	s += fmt.Sprintf("  dram fills %d, writebacks %d, row hits %.1f%%, off-chip %d bytes, modelled cost %d instr\n",
		p.DRAM.Fills, p.DRAM.Writebacks, 100*p.DRAM.RowHitRate(), p.OffChipBytes(), p.MemCost)
	return s
}
