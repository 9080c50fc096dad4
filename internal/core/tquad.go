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
	if o.SliceInterval == 0 {
		o.SliceInterval = DefaultSliceInterval
	}
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

// Tool is one attached tQUAD instance.
type Tool struct {
	opts  Options
	host  pin.Host
	stack *callstack.Stack

	series []*kernelSeries
	ids    map[string]uint16
	// One-entry memo over ids: consecutive events overwhelmingly belong
	// to the same kernel (the name string is the same frame's, so the
	// comparison is usually a pointer-equal fast path), turning the
	// per-event string-map lookup into a compare.  lastName is "" until
	// the first lookup; "" is never a kernel name (anonymous routines
	// get sub_%x names).
	lastName string
	lastID   uint16
	// curSlice is the slice the instruction clock currently lies in and
	// sliceEnd its exclusive upper bound in instructions: the per-event
	// slice-boundary check is one compare against sliceEnd, and the
	// division that names the new slice is paid only at the boundary
	// (inside rotate, the snapshot tick), not per traced event.
	curSlice uint64
	sliceEnd uint64
	lastIC   uint64 // ICount at the previous attributed event
	// Snapshots counts slice-boundary snapshot operations.
	Snapshots uint64
	// Per-path analysis-call counters — the measured analogue of the
	// paper's Table III overhead breakdown.  Each path charges its own
	// simulated cost (CostTrace/CostSkip/CostPrefetch per call,
	// CostSnapshot per Snapshots increment).
	TraceCalls    uint64 // full tracing path
	SkipCalls     uint64 // early-discard path (no kernel, or stack access excluded)
	PrefetchCalls uint64 // prefetch fast path ("return immediately")
}

// Attach wires a tQUAD tool onto the host — a live pin.Engine or a
// trace replayer.  Call before running the machine (or the replay).
func Attach(h pin.Host, opts Options) *Tool {
	opts.setDefaults()
	t := &Tool{
		opts:     opts,
		host:     h,
		series:   []*kernelSeries{nil}, // id 0 reserved
		ids:      make(map[string]uint16),
		sliceEnd: opts.SliceInterval,
	}
	h.InitSymbols()
	t.stack = callstack.New(func(target uint64) (string, bool, bool) {
		rtn, ok := h.RTNFindByAddress(target)
		if !ok {
			return "", false, false
		}
		return rtn.Name(), rtn.IsInMainImage(), true
	}, opts.ExcludeLibs)
	h.INSAddInstrumentFunction(t.instruction)
	return t
}

func (t *Tool) kernelID(name string) uint16 {
	if name == t.lastName && name != "" {
		return t.lastID
	}
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.series))
		t.ids[name] = id
		t.series = append(t.series, &kernelSeries{name: name})
	}
	t.lastName, t.lastID = name, id
	return id
}

// numKernels returns the number of kernels observed so far.
func (t *Tool) numKernels() uint64 { return uint64(len(t.ids)) }

// instruction is the Instruction() instrumentation routine: it sets up
// the analysis calls for memory references, calls and returns.
func (t *Tool) instruction(ins *pin.INS) {
	h := t.host
	switch {
	case ins.IsCall():
		ins.InsertCall(func(ctx *pin.Context) {
			t.account(ctx, false, true)
			t.stack.OnCall(ctx.Target) // EnterFC: update the call stack
		})
	case ins.IsRet():
		ins.InsertCall(func(ctx *pin.Context) {
			t.account(ctx, true, true)
			t.stack.OnReturn()
		})
	case ins.IsMemoryRead():
		ins.InsertPredicatedCall(func(ctx *pin.Context) {
			if ctx.Prefetch && !t.opts.TracePrefetches {
				t.PrefetchCalls++
				h.ChargeOverhead(t.opts.CostPrefetch)
				return
			}
			t.account(ctx, true, h.IsStackAddr(ctx.Addr, ctx.SP))
		})
	case ins.IsMemoryWrite():
		ins.InsertPredicatedCall(func(ctx *pin.Context) {
			if ctx.Prefetch {
				t.PrefetchCalls++
				h.ChargeOverhead(t.opts.CostPrefetch)
				return
			}
			t.account(ctx, false, h.IsStackAddr(ctx.Addr, ctx.SP))
		})
	}
}

// rotate is the snapshot tick: it advances the current slice to the one
// containing ic, charging the snapshot-management cost once per observed
// boundary crossing (rotating the bandwidth usage data list).  The only
// division on the tracing path lives here.
func (t *Tool) rotate(ic uint64) {
	t.curSlice = ic / t.opts.SliceInterval
	t.sliceEnd = (t.curSlice + 1) * t.opts.SliceInterval
	t.host.ChargeOverhead(t.opts.CostSnapshot)
	t.Snapshots++
}

// account is the IncreaseRead/IncreaseWrite analysis body: it charges the
// current kernel's slice accumulator.
func (t *Tool) account(ctx *pin.Context, isRead, isStack bool) {
	ic := t.host.ICount()
	// Instructions executed since the previous event all belong to the
	// current kernel (calls and returns are themselves events, so the
	// kernel cannot have changed in between).
	delta := ic - t.lastIC
	t.lastIC = ic
	fr, ok := t.stack.Current()
	if !ok {
		t.SkipCalls++
		t.host.ChargeOverhead(t.opts.CostSkip)
		return
	}
	if !t.opts.IncludeStack && isStack {
		t.SkipCalls++
		t.host.ChargeOverhead(t.opts.CostSkip)
		// The early-discard path attributes time but performs no
		// snapshot management (the paper charges that to the tracing
		// path), so the slice is named without rotating.
		slice := t.curSlice
		if ic >= t.sliceEnd {
			slice = ic / t.opts.SliceInterval
		}
		t.chargeInstr(fr.Name, slice, delta)
		return
	}
	t.TraceCalls++
	t.host.ChargeOverhead(t.opts.CostTrace)
	if ic >= t.sliceEnd {
		// Slice boundary: snapshot management, the slice-dependent part
		// of the overhead.
		t.rotate(ic)
	}
	size := uint64(ctx.Size)
	pt := t.series[t.kernelID(fr.Name)].at(t.curSlice)
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

// chargeInstr attributes instruction time to a kernel's slice without any
// byte traffic (the early-discarded-access path).
func (t *Tool) chargeInstr(name string, slice, delta uint64) {
	if delta == 0 {
		return
	}
	t.series[t.kernelID(name)].at(slice).Instr += delta
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
		SliceInterval: t.opts.SliceInterval,
		NumSlices:     (ic + t.opts.SliceInterval - 1) / t.opts.SliceInterval,
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
		SliceInterval: t.opts.SliceInterval,
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
