// Package core implements tQUAD, the paper's contribution: a temporal
// memory-bandwidth profiler.  It divides execution into time slices of a
// fixed number of guest instructions (the platform-independent clock) and
// records, per kernel and per slice, how many bytes were read and written
// — separately for accesses that touch the local stack area and those
// that do not.  From the resulting series it derives each kernel's
// activity span, average and peak bandwidth in bytes per instruction, and
// the raw material for phase identification (package phase) and the
// running-time graphs of Figures 6 and 7.
//
// The tool follows the paper's architecture (Figs. 3-5): instruction-level
// instrumentation attaches IncreaseRead/IncreaseWrite analysis calls with
// InsertPredicatedCall (returning immediately on prefetch detection),
// routine-level instrumentation maintains the internal call stack via
// EnterFC, and return instructions are monitored to keep that stack
// consistent.
package core

import (
	"fmt"
	"sort"

	"tquad/internal/callstack"
	"tquad/internal/obs"
	"tquad/internal/pin"
)

// Options configure one tQUAD run.
type Options struct {
	// SliceInterval is the number of guest instructions per time slice —
	// "a key parameter which adjusts the detailing degree of the
	// extracted memory bandwidth usage information".
	SliceInterval uint64
	// IncludeStack selects whether local-stack-area accesses are traced.
	// When true the profile carries both the stack-inclusive and
	// stack-exclusive series (the exclusive one is derivable for free);
	// when false, stack accesses are discarded early and only the
	// exclusive series exists.
	IncludeStack bool
	// ExcludeLibs drops bandwidth caused by OS/library routines (those
	// outside the main image).
	ExcludeLibs bool
	// TracePrefetches disables the prefetch fast path (analysis
	// routines normally "return immediately upon detection of a
	// prefetch state"): prefetched bytes are then traced like real
	// reads.  Exists for the ablation benchmark; the paper's tool never
	// does this.
	TracePrefetches bool

	// Simulated analysis costs (instruction-equivalents); zero selects
	// the defaults.
	CostTrace    uint64
	CostSkip     uint64
	CostPrefetch uint64
	// CostSnapshot is charged once per time-slice boundary (the paper's
	// "memory bandwidth snapshot management"); it is what makes small
	// slice intervals more expensive, producing the 37.2x-68.95x
	// slowdown spread of Section V.A.
	CostSnapshot uint64
}

// Default analysis costs.  Tracing a tQUAD access updates a per-kernel
// slice accumulator (cheaper than QUAD's per-byte shadow walk).
const (
	DefaultCostTrace    = 260
	DefaultCostSkip     = 25
	DefaultCostPrefetch = 2
	DefaultCostSnapshot = 25_000
	// DefaultSliceInterval is used when Options.SliceInterval is zero.
	DefaultSliceInterval = 100_000
)

func (o *Options) setDefaults() {
	if o.CostTrace == 0 {
		o.CostTrace = DefaultCostTrace
	}
	if o.CostSkip == 0 {
		o.CostSkip = DefaultCostSkip
	}
	if o.CostPrefetch == 0 {
		o.CostPrefetch = DefaultCostPrefetch
	}
	if o.CostSnapshot == 0 {
		o.CostSnapshot = DefaultCostSnapshot
	}
}

// SlicePoint is one kernel's traffic within one time slice.
type SlicePoint struct {
	Slice     uint64 // slice index
	ReadIncl  uint64 // bytes read, counting stack-area accesses
	ReadExcl  uint64 // bytes read, stack-area accesses excluded
	WriteIncl uint64
	WriteExcl uint64
	// Instr counts the kernel's own executed instructions within the
	// slice — the denominator of the bytes-per-instruction intensities
	// (a kernel active for a sliver of a slice is normalised by its own
	// time, not the whole slice).
	Instr uint64
}

// Total returns read+write bytes for the chosen stack mode.
func (p SlicePoint) Total(includeStack bool) uint64 {
	if includeStack {
		return p.ReadIncl + p.WriteIncl
	}
	return p.ReadExcl + p.WriteExcl
}

// add folds q's traffic and instruction time into p (q.Slice unused).
func (p *SlicePoint) add(q *SlicePoint) {
	p.ReadIncl += q.ReadIncl
	p.ReadExcl += q.ReadExcl
	p.WriteIncl += q.WriteIncl
	p.WriteExcl += q.WriteExcl
	p.Instr += q.Instr
}

// kernelSeries accumulates one kernel's temporal data during the run as
// an append-only dense series.  Slice indices derive from the monotonic
// instruction clock, so points arrive in non-decreasing slice order and
// the series is sorted by construction; cur caches a pointer to the last
// appended point so the common case — same kernel, same slice — is a
// single pointer compare instead of a map lookup.
type kernelSeries struct {
	name   string
	points []SlicePoint
	cur    *SlicePoint // &points[len(points)-1], nil until the first point
}

// at returns the accumulator point for the given slice, appending a new
// one when the kernel enters a slice it has not touched yet.
func (ks *kernelSeries) at(slice uint64) *SlicePoint {
	if pt := ks.cur; pt != nil && pt.Slice == slice {
		return pt
	}
	ks.points = append(ks.points, SlicePoint{Slice: slice})
	ks.cur = &ks.points[len(ks.points)-1]
	return ks.cur
}

// attribution is the half of tQUAD that does not depend on the slice
// interval: the call stack, the kernel table, the instruction clock and
// the per-path call counters.  Every interval attached together
// (AttachIntervals) shares one, so the analysis routines run once per
// event however many intervals are profiled.
//
// Consecutive attributed events of one kernel that fall in one slice of
// every interval form the pending run: the fast path adds an event to
// pend, and turn hands the run to each interval's accumulator only when
// the kernel or some interval's slice changes — so an event costs the
// same for one interval as for many.
type attribution struct {
	opts  Options
	host  pin.Host
	stack *callstack.Stack
	views []*Tool // one accumulator per interval

	ids map[string]uint16 // kernel name → id; ids start at 1

	// The pending run: its kernel (pendID 0 before the first), the
	// traffic and instruction time it has gathered, and the clock at
	// which it ends — for a traced event (traceBound) the first slice
	// boundary or due snapshot of any interval, for a discarded one
	// (skipBound) the first slice boundary.
	pendName   string
	pendID     uint16
	pend       SlicePoint
	traceBound uint64
	skipBound  uint64

	lastIC uint64 // ICount at the previous attributed event

	// Per-path analysis-call counters — the measured analogue of the
	// paper's Table III overhead breakdown.  Each path charges its own
	// simulated cost (CostTrace/CostSkip/CostPrefetch per call,
	// CostSnapshot per Snapshots increment).
	TraceCalls    uint64 // full tracing path
	SkipCalls     uint64 // early-discard path (no kernel, or stack access excluded)
	PrefetchCalls uint64 // prefetch fast path ("return immediately")
}

// Tool is one attached tQUAD instance: the accumulator of one slice
// interval over an attribution it may share with other intervals.
type Tool struct {
	*attribution
	interval uint64
	series   []*kernelSeries // by kernel id; id 0 reserved

	// slice is the slice the pending run lies in and sliceEnd its
	// exclusive upper bound in instructions: the division that names a
	// slice is paid only when the clock crosses a boundary.  snapEnd is
	// the upper bound of the slice the last snapshot rotated to.
	slice    uint64
	sliceEnd uint64
	snapEnd  uint64
	// Snapshots counts slice-boundary snapshot operations.
	Snapshots uint64
}

// Attach wires a tQUAD tool onto the host — a live pin.Engine or a
// trace replayer.  Call before running the machine (or the replay).
func Attach(h pin.Host, opts Options) *Tool {
	return AttachIntervals(h, opts, []uint64{opts.SliceInterval})[0]
}

// AttachIntervals wires one tQUAD attribution onto the host with an
// accumulator per slice interval, replacing opts.SliceInterval; zero
// selects the default.  The i-th tool profiles intervals[i] exactly as a
// tool attached alone would, and its Breakdown is what that tool would
// charge; the host's clock is charged each path cost once and every
// interval's snapshots.
func AttachIntervals(h pin.Host, opts Options, intervals []uint64) []*Tool {
	opts.setDefaults()
	a := &attribution{opts: opts, host: h, ids: make(map[string]uint16)}
	for _, iv := range intervals {
		if iv == 0 {
			iv = DefaultSliceInterval
		}
		a.views = append(a.views, &Tool{
			attribution: a,
			interval:    iv,
			series:      []*kernelSeries{nil},
			sliceEnd:    iv,
			snapEnd:     iv,
		})
	}
	h.InitSymbols()
	a.stack = callstack.New(func(target uint64) (string, bool, bool) {
		rtn, ok := h.RTNFindByAddress(target)
		if !ok {
			return "", false, false
		}
		return rtn.Name(), rtn.IsInMainImage(), true
	}, opts.ExcludeLibs)
	h.INSAddInstrumentFunction(a.instruction)
	return a.views
}

// kernelID returns the kernel's id, registering it — a series in every
// interval's accumulator — on first sight.
func (a *attribution) kernelID(name string) uint16 {
	id, ok := a.ids[name]
	if !ok {
		id = uint16(len(a.ids) + 1)
		a.ids[name] = id
		for _, v := range a.views {
			v.series = append(v.series, &kernelSeries{name: name})
		}
	}
	return id
}

// numKernels returns the number of kernels observed so far.
func (a *attribution) numKernels() uint64 { return uint64(len(a.ids)) }

// instruction is the Instruction() instrumentation routine: it sets up
// the analysis calls for memory references, calls and returns.
func (a *attribution) instruction(ins *pin.INS) {
	h := a.host
	switch {
	case ins.IsCall():
		ins.InsertCall(func(ctx *pin.Context) {
			a.account(ctx, false, true)
			a.stack.OnCall(ctx.Target) // EnterFC: update the call stack
		})
	case ins.IsRet():
		ins.InsertCall(func(ctx *pin.Context) {
			a.account(ctx, true, true)
			a.stack.OnReturn()
		})
	case ins.IsMemoryRead():
		ins.InsertPredicatedCall(func(ctx *pin.Context) {
			if ctx.Prefetch && !a.opts.TracePrefetches {
				a.PrefetchCalls++
				h.ChargeOverhead(a.opts.CostPrefetch)
				return
			}
			a.account(ctx, true, h.IsStackAddr(ctx.Addr, ctx.SP))
		})
	case ins.IsMemoryWrite():
		ins.InsertPredicatedCall(func(ctx *pin.Context) {
			if ctx.Prefetch {
				a.PrefetchCalls++
				h.ChargeOverhead(a.opts.CostPrefetch)
				return
			}
			a.account(ctx, false, h.IsStackAddr(ctx.Addr, ctx.SP))
		})
	}
}

// account is the IncreaseRead/IncreaseWrite analysis body: it charges the
// current kernel's slice accumulators.  An attributed event lands in the
// slice containing its ICount in every interval.
func (a *attribution) account(ctx *pin.Context, isRead, isStack bool) {
	ic := a.host.ICount()
	// Instructions executed since the previous event all belong to the
	// current kernel (calls and returns are themselves events, so the
	// kernel cannot have changed in between).
	delta := ic - a.lastIC
	a.lastIC = ic
	fr, ok := a.stack.Current()
	if !ok {
		a.SkipCalls++
		a.host.ChargeOverhead(a.opts.CostSkip)
		return
	}
	if !a.opts.IncludeStack && isStack {
		a.SkipCalls++
		a.host.ChargeOverhead(a.opts.CostSkip)
		// The early-discard path attributes time but performs no
		// snapshot management (the paper charges that to the tracing
		// path), and with no time to attribute it touches nothing.
		if delta == 0 {
			return
		}
		if fr.Name != a.pendName || ic >= a.skipBound {
			a.turn(fr.Name, ic, false)
		}
		a.pend.Instr += delta
		return
	}
	a.TraceCalls++
	a.host.ChargeOverhead(a.opts.CostTrace)
	if fr.Name != a.pendName || ic >= a.traceBound {
		a.turn(fr.Name, ic, true)
	}
	size := uint64(ctx.Size)
	pt := &a.pend
	pt.Instr += delta
	if isRead {
		pt.ReadIncl += size
		if !isStack {
			pt.ReadExcl += size
		}
	} else {
		pt.WriteIncl += size
		if !isStack {
			pt.WriteExcl += size
		}
	}
}

// turn prepares the pending run for an event at ic in the named kernel
// that the fast path cannot take.  When the kernel or some interval's
// slice changes, the pending run goes to every accumulator and a new one
// starts.  A traced event then takes the snapshot tick in each interval
// whose last snapshot lies in an earlier slice: snapshot management, the
// slice-dependent part of the overhead, charged once per observed
// boundary crossing (rotating the bandwidth usage data list).
func (a *attribution) turn(name string, ic uint64, traced bool) {
	if a.pendID == 0 || name != a.pendName || ic >= a.skipBound {
		a.flush()
		if a.pendID == 0 || name != a.pendName {
			a.pendName, a.pendID = name, a.kernelID(name)
		}
	}
	a.traceBound, a.skipBound = ^uint64(0), ^uint64(0)
	for _, v := range a.views {
		if ic >= v.sliceEnd {
			v.slice = ic / v.interval
			v.sliceEnd = (v.slice + 1) * v.interval
		}
		if traced && ic >= v.snapEnd {
			v.snapEnd = v.sliceEnd
			a.host.ChargeOverhead(a.opts.CostSnapshot)
			v.Snapshots++
		}
		a.traceBound = min(a.traceBound, v.snapEnd)
		a.skipBound = min(a.skipBound, v.sliceEnd)
	}
}

// flush adds the pending run into each interval's point for its kernel
// and slice, and empties it.
func (a *attribution) flush() {
	if a.pendID == 0 {
		return
	}
	for _, v := range a.views {
		v.series[a.pendID].at(v.slice).add(&a.pend)
	}
	a.pend = SlicePoint{}
}

// KernelProfile is the finished temporal record of one kernel.
type KernelProfile struct {
	Name   string
	Points []SlicePoint // sorted by slice index; only non-empty slices

	FirstSlice   uint64 // earliest slice with activity
	LastSlice    uint64 // latest slice with activity
	ActivitySpan uint64 // number of slices with any activity

	TotalReadIncl  uint64
	TotalReadExcl  uint64
	TotalWriteIncl uint64
	TotalWriteExcl uint64
}

// hasTraffic reports whether the point carries any byte traffic (points
// may exist purely to attribute instruction time).
func (p SlicePoint) hasTraffic() bool {
	return p.ReadIncl|p.WriteIncl|p.ReadExcl|p.WriteExcl != 0
}

// Active reports whether the kernel touched memory in the given slice.
func (k *KernelProfile) Active(slice uint64) bool {
	i := sort.Search(len(k.Points), func(i int) bool { return k.Points[i].Slice >= slice })
	return i < len(k.Points) && k.Points[i].Slice == slice && k.Points[i].hasTraffic()
}

// BandwidthStats are the normalised bytes-per-instruction figures of
// Table IV for one stack mode.
type BandwidthStats struct {
	AvgRead  float64 // bytes per instruction, averaged over active slices
	AvgWrite float64
	MaxRW    float64 // peak (read+write) bytes per instruction in any slice
}

// Stats computes the kernel's bandwidth statistics for the chosen stack
// mode.  Intensities are normalised by the kernel's own executed
// instructions in the contributing slices ("the data are normalized as
// number of bytes-per-instruction"), so a burst kernel like
// AudioIo_setFrames reports its true per-instruction intensity no matter
// how little of a slice it occupies.
func (k *KernelProfile) Stats(includeStack bool, sliceInterval uint64) BandwidthStats {
	var s BandwidthStats
	var reads, writes, instr uint64
	// Peaks are only meaningful where the kernel executed a
	// non-negligible share of the slice; tiny samples (a lone spill
	// burst cut by a slice boundary) are statistical noise, the "slight
	// inconsistencies in the measurements" the paper flags with
	// upper-bound markers.
	minInstr := sliceInterval / 64
	if minInstr == 0 {
		minInstr = 1
	}
	for _, p := range k.Points {
		if p.Total(includeStack) == 0 {
			continue
		}
		if includeStack {
			reads += p.ReadIncl
			writes += p.WriteIncl
		} else {
			reads += p.ReadExcl
			writes += p.WriteExcl
		}
		instr += p.Instr
		if p.Instr >= minInstr {
			if rw := float64(p.Total(includeStack)) / float64(p.Instr); rw > s.MaxRW {
				s.MaxRW = rw
			}
		}
	}
	if instr == 0 {
		return s
	}
	s.AvgRead = float64(reads) / float64(instr)
	s.AvgWrite = float64(writes) / float64(instr)
	return s
}

// Series expands the kernel's per-slice byte counts into a dense vector
// over [0, numSlices) for the chosen metric — the plotted series of
// Figures 6 and 7.
func (k *KernelProfile) Series(numSlices uint64, reads, includeStack bool) []uint64 {
	out := make([]uint64, numSlices)
	for _, p := range k.Points {
		if p.Slice >= numSlices {
			continue
		}
		switch {
		case reads && includeStack:
			out[p.Slice] = p.ReadIncl
		case reads:
			out[p.Slice] = p.ReadExcl
		case includeStack:
			out[p.Slice] = p.WriteIncl
		default:
			out[p.Slice] = p.WriteExcl
		}
	}
	return out
}

// Profile is the finished result of one tQUAD run.
type Profile struct {
	SliceInterval uint64
	NumSlices     uint64 // total slices in the run (ceil of icount/interval)
	TotalInstr    uint64 // guest instructions executed
	IncludeStack  bool   // whether stack-inclusive series are populated
	Kernels       []*KernelProfile
}

// finish derives the kernel's totals and activity figures from its
// (sorted) point series.
func (kp *KernelProfile) finish() {
	first := true
	for _, pt := range kp.Points {
		kp.TotalReadIncl += pt.ReadIncl
		kp.TotalReadExcl += pt.ReadExcl
		kp.TotalWriteIncl += pt.WriteIncl
		kp.TotalWriteExcl += pt.WriteExcl
		if pt.hasTraffic() {
			if first {
				kp.FirstSlice = pt.Slice
				first = false
			}
			kp.LastSlice = pt.Slice
			kp.ActivitySpan++
		}
	}
}

// assemble materialises the per-kernel profiles, sorted by name.
func (t *Tool) assemble() []*KernelProfile {
	t.flush()
	var out []*KernelProfile
	for id := 1; id < len(t.series); id++ {
		ks := t.series[id]
		// The dense series is sorted by construction (the slice index
		// derives from the monotonic instruction clock).
		kp := &KernelProfile{Name: ks.name, Points: append([]SlicePoint(nil), ks.points...)}
		kp.finish()
		out = append(out, kp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Snapshot assembles the profile accumulated so far (normally called
// after the machine halts).
func (t *Tool) Snapshot() *Profile {
	ic := t.host.ICount()
	return &Profile{
		SliceInterval: t.interval,
		NumSlices:     (ic + t.interval - 1) / t.interval,
		TotalInstr:    ic,
		IncludeStack:  t.opts.IncludeStack,
		Kernels:       t.assemble(),
	}
}

// Kernel returns the profile of the named kernel.
func (p *Profile) Kernel(name string) (*KernelProfile, bool) {
	for _, k := range p.Kernels {
		if k.Name == name {
			return k, true
		}
	}
	return nil, false
}

// ActiveSet returns the names of kernels active in the given slice.
func (p *Profile) ActiveSet(slice uint64) []string {
	var names []string
	for _, k := range p.Kernels {
		if k.Active(slice) {
			names = append(names, k.Name)
		}
	}
	return names
}

// OverheadBreakdown itemises the simulated analysis cost the tool charged
// to the machine — the live, measured analogue of the paper's Table III
// overhead breakdown (Section V.A).  Each component is calls x unit cost
// in instruction-equivalents.
type OverheadBreakdown struct {
	SliceInterval uint64

	TraceCalls    uint64
	SkipCalls     uint64
	PrefetchCalls uint64
	Snapshots     uint64

	TraceCost    uint64 // TraceCalls x CostTrace
	SkipCost     uint64 // SkipCalls x CostSkip
	PrefetchCost uint64 // PrefetchCalls x CostPrefetch
	SnapshotCost uint64 // Snapshots x CostSnapshot
}

// Total returns the summed instruction-equivalent cost.  By construction
// it equals the machine's Overhead counter when this tool is the only
// overhead source attached.
func (b OverheadBreakdown) Total() uint64 {
	return b.TraceCost + b.SkipCost + b.PrefetchCost + b.SnapshotCost
}

// Breakdown returns the overhead accounting accumulated so far.
func (t *Tool) Breakdown() OverheadBreakdown {
	return OverheadBreakdown{
		SliceInterval: t.interval,
		TraceCalls:    t.TraceCalls,
		SkipCalls:     t.SkipCalls,
		PrefetchCalls: t.PrefetchCalls,
		Snapshots:     t.Snapshots,
		TraceCost:     t.TraceCalls * t.opts.CostTrace,
		SkipCost:      t.SkipCalls * t.opts.CostSkip,
		PrefetchCost:  t.PrefetchCalls * t.opts.CostPrefetch,
		SnapshotCost:  t.Snapshots * t.opts.CostSnapshot,
	}
}

// SliceByteBuckets are the histogram bounds for per-slice byte totals.
var SliceByteBuckets = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// PublishMetrics exports the tool's path counters, overhead components and
// a per-slice traffic histogram into the registry.  A nil registry is a
// no-op.
func (t *Tool) PublishMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	b := t.Breakdown()
	r.Gauge("tquad_core_slice_interval_instr").Set(float64(b.SliceInterval))
	r.Counter(obs.Label("tquad_core_analysis_calls_total", "path", "trace")).Add(b.TraceCalls)
	r.Counter(obs.Label("tquad_core_analysis_calls_total", "path", "skip")).Add(b.SkipCalls)
	r.Counter(obs.Label("tquad_core_analysis_calls_total", "path", "prefetch")).Add(b.PrefetchCalls)
	r.Counter("tquad_core_snapshots_total").Add(b.Snapshots)
	r.Counter(obs.Label("tquad_core_overhead_instr_total", "component", "trace")).Add(b.TraceCost)
	r.Counter(obs.Label("tquad_core_overhead_instr_total", "component", "skip")).Add(b.SkipCost)
	r.Counter(obs.Label("tquad_core_overhead_instr_total", "component", "prefetch")).Add(b.PrefetchCost)
	r.Counter(obs.Label("tquad_core_overhead_instr_total", "component", "snapshot")).Add(b.SnapshotCost)

	// Per-slice snapshot metrics: total traffic per populated slice, and
	// per-kernel series sizes.
	r.Counter("tquad_core_kernels_total").Add(t.numKernels())
	slices := make(map[uint64]uint64)
	for _, kp := range t.assemble() {
		for _, pt := range kp.Points {
			slices[pt.Slice] += pt.ReadIncl + pt.WriteIncl
		}
	}
	h := r.Histogram("tquad_core_slice_bytes", SliceByteBuckets)
	for _, bytes := range slices {
		h.Observe(float64(bytes))
	}
}

// String renders the breakdown as the end-of-run overhead table.
func (b OverheadBreakdown) String() string {
	total := b.Total()
	pct := func(n uint64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(n) / float64(total)
	}
	s := fmt.Sprintf("overhead breakdown (slice interval %d):\n", b.SliceInterval)
	s += fmt.Sprintf("  %-10s %12s %16s %7s\n", "component", "calls", "cost (instr)", "share")
	s += fmt.Sprintf("  %-10s %12d %16d %6.1f%%\n", "trace", b.TraceCalls, b.TraceCost, pct(b.TraceCost))
	s += fmt.Sprintf("  %-10s %12d %16d %6.1f%%\n", "skip", b.SkipCalls, b.SkipCost, pct(b.SkipCost))
	s += fmt.Sprintf("  %-10s %12d %16d %6.1f%%\n", "prefetch", b.PrefetchCalls, b.PrefetchCost, pct(b.PrefetchCost))
	s += fmt.Sprintf("  %-10s %12d %16d %6.1f%%\n", "snapshot", b.Snapshots, b.SnapshotCost, pct(b.SnapshotCost))
	s += fmt.Sprintf("  %-10s %12s %16d %6.1f%%\n", "total", "", total, 100.0)
	return s
}
