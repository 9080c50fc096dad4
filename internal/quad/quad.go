// Package quad implements QUAD, the memory-access-pattern analyser tQUAD
// complements (Ostadzadeh et al., ARC 2010): it tracks, via shadow
// memory, which kernel produced every guest byte and which kernel
// consumes it, yielding producer→consumer bindings, per-kernel IN/OUT
// byte totals and unique-memory-address (UnMA) counts — the contents of
// Table II — plus the Quantitative Data Usage (QDU) graph.
//
// The tool is written against the pin instrumentation API exactly as the
// paper's pseudocode sketches: instruction-level instrumentation attaches
// IncreaseRead/IncreaseWrite analysis calls (predicated, returning
// immediately for prefetches), and routine-level instrumentation keeps
// the internal call stack via EnterFC, with returns monitored at the
// instruction level.
package quad

import (
	"fmt"
	"sort"
	"strings"

	"tquad/internal/callstack"
	"tquad/internal/pin"
	"tquad/internal/shadow"
)

// Options configure one QUAD run.
type Options struct {
	// IncludeStack counts local-stack-area accesses; when false they are
	// discarded as early as possible (the cheap path the paper
	// describes).
	IncludeStack bool
	// ExcludeLibs drops accesses made by routines outside the main
	// image.
	ExcludeLibs bool

	// Simulated analysis-routine costs, in instruction-equivalents, used
	// for the instrumented-run experiments (Table III, slowdown study).
	// Zero values select the defaults.
	CostTrace    uint64 // full shadow-memory trace of one access
	CostSkip     uint64 // early-discarded stack access
	CostPrefetch uint64 // immediate return on prefetch detection
}

// Default analysis costs (instruction-equivalents per access).  They
// model the paper's Pin tool, whose trace path walks shadow memory per
// byte and updates three structures, and whose skip path is a bounds
// check; they are not a measurement of this implementation, which walks
// shadow memory a page span at a time.
const (
	DefaultCostTrace    = 30
	DefaultCostSkip     = 3
	DefaultCostPrefetch = 1
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
}

// kernelData accumulates per-kernel counters.
type kernelData struct {
	name     string
	inBytes  uint64
	readSet  *shadow.AddrSet
	writeSet *shadow.AddrSet
}

// Tool is one attached QUAD instance.
type Tool struct {
	opts  Options
	host  pin.Host
	stack *callstack.Stack

	owners  *shadow.Owners
	kernels []*kernelData // index = kernel id (0 unused)
	ids     map[string]uint16
	// lastName/lastID memoise kernelID's most recent lookup, turning the
	// per-access string-map lookup into a compare.  lastName is "" until
	// the first lookup; "" is never a kernel name (anonymous routines get
	// sub_%x names).
	lastName string
	lastID   uint16

	// bindings[{producer, consumer}] = bytes, producer 0 meaning the
	// byte had no tracked producer (e.g. data placed by the simulated
	// OS).  It holds only the pairs that bind: a guest may have
	// thousands of routines.  lastPair/lastBytes memoise the most recent
	// pair's counter; the zero lastPair matches no real pair, because
	// consumer ids start at 1.
	bindings  map[pair]*uint64
	lastPair  pair
	lastBytes *uint64
}

// pair is one producer→consumer edge of the QDU graph, by kernel id.
type pair struct{ producer, consumer uint16 }

// Attach wires a QUAD tool onto the host — a live pin.Engine or a trace
// replayer.  Call before running the machine (or the replay).
func Attach(h pin.Host, opts Options) *Tool {
	opts.setDefaults()
	t := &Tool{
		opts:     opts,
		host:     h,
		owners:   shadow.NewOwners(),
		kernels:  []*kernelData{nil}, // id 0 reserved
		ids:      make(map[string]uint16),
		bindings: make(map[pair]*uint64),
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

// kernelID interns a kernel name.
func (t *Tool) kernelID(name string) uint16 {
	if name == t.lastName && name != "" {
		return t.lastID
	}
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.kernels))
		t.ids[name] = id
		t.kernels = append(t.kernels, &kernelData{
			name:     name,
			readSet:  shadow.NewAddrSet(),
			writeSet: shadow.NewAddrSet(),
		})
	}
	t.lastName, t.lastID = name, id
	return id
}

// current resolves the kernel currently on top of the internal call
// stack; ok is false inside excluded library regions or before main image
// entry.
func (t *Tool) current() (uint16, bool) {
	fr, ok := t.stack.Current()
	if !ok {
		return 0, false
	}
	return t.kernelID(fr.Name), true
}

// instruction is the INS instrumentation routine (the paper's
// Instruction()): it attaches the analysis calls.
func (t *Tool) instruction(ins *pin.INS) {
	h := t.host
	switch {
	case ins.IsCall():
		ins.InsertCall(func(ctx *pin.Context) {
			// The return-address push is stack traffic of the caller
			// (it lands just below the caller's SP, so it is forced
			// into the stack class).
			t.write(ctx, true)
			t.stack.OnCall(ctx.Target) // EnterFC
		})
	case ins.IsRet():
		ins.InsertCall(func(ctx *pin.Context) {
			// The return-address pop is stack traffic of the callee.
			t.read(ctx, true)
			t.stack.OnReturn()
		})
	case ins.IsMemoryRead():
		ins.InsertPredicatedCall(func(ctx *pin.Context) {
			if ctx.Prefetch {
				h.ChargeOverhead(t.opts.CostPrefetch)
				return
			}
			t.increaseRead(ctx)
		})
	case ins.IsMemoryWrite():
		ins.InsertPredicatedCall(func(ctx *pin.Context) {
			if ctx.Prefetch {
				h.ChargeOverhead(t.opts.CostPrefetch)
				return
			}
			t.increaseWrite(ctx)
		})
	}
}

// increaseRead is the IncreaseRead analysis routine.
func (t *Tool) increaseRead(ctx *pin.Context) {
	t.read(ctx, t.host.IsStackAddr(ctx.Addr, ctx.SP))
}

// increaseWrite is the IncreaseWrite analysis routine.
func (t *Tool) increaseWrite(ctx *pin.Context) {
	t.write(ctx, t.host.IsStackAddr(ctx.Addr, ctx.SP))
}

func (t *Tool) read(ctx *pin.Context, isStack bool) {
	h := t.host
	if !t.opts.IncludeStack && isStack {
		h.ChargeOverhead(t.opts.CostSkip)
		return
	}
	me, ok := t.current()
	if !ok {
		h.ChargeOverhead(t.opts.CostSkip)
		return
	}
	h.ChargeOverhead(t.opts.CostTrace)
	k := t.kernels[me]
	k.inBytes += uint64(ctx.Size)
	k.readSet.AddRange(ctx.Addr, ctx.Size)
	// Walk the producers page span by page span, charging each run of
	// equally-owned bytes to its binding once.
	for addr, size := ctx.Addr, ctx.Size; size > 0; {
		owners, owner, n := t.owners.Span(addr, size)
		if owners == nil {
			t.bind(owner, me, uint64(n))
		} else {
			run := 0
			for i := 1; i < n; i++ {
				if owners[i] != owners[run] {
					t.bind(owners[run], me, uint64(i-run))
					run = i
				}
			}
			t.bind(owners[run], me, uint64(n-run))
		}
		addr += uint64(n)
		size -= n
	}
}

// bind charges bytes consumed by consumer to the producer→consumer edge.
func (t *Tool) bind(producer, consumer uint16, bytes uint64) {
	p := pair{producer, consumer}
	if p != t.lastPair {
		c := t.bindings[p]
		if c == nil {
			c = new(uint64)
			t.bindings[p] = c
		}
		t.lastPair, t.lastBytes = p, c
	}
	*t.lastBytes += bytes
}

func (t *Tool) write(ctx *pin.Context, isStack bool) {
	h := t.host
	if !t.opts.IncludeStack && isStack {
		h.ChargeOverhead(t.opts.CostSkip)
		return
	}
	me, ok := t.current()
	if !ok {
		h.ChargeOverhead(t.opts.CostSkip)
		return
	}
	h.ChargeOverhead(t.opts.CostTrace)
	k := t.kernels[me]
	k.writeSet.AddRange(ctx.Addr, ctx.Size)
	t.owners.SetRange(ctx.Addr, ctx.Size, me)
}

// KernelStats is one row of Table II.
type KernelStats struct {
	Name    string
	In      uint64 // bytes read by the kernel
	InUnMA  uint64 // unique addresses read
	Out     uint64 // bytes read by anyone from locations this kernel wrote
	OutUnMA uint64 // unique addresses written
}

// Binding is one edge of the QDU graph.
type Binding struct {
	Producer string // "" when the data had no tracked producer
	Consumer string
	Bytes    uint64
}

// Report is the outcome of one QUAD run.
type Report struct {
	Kernels  []KernelStats // sorted by name
	Bindings []Binding     // sorted by descending bytes
}

// Report assembles the run's results.
func (t *Tool) Report() *Report {
	out := make(map[uint16]uint64) // producer -> total bytes consumed by anyone
	var bindings []Binding
	for p, bytes := range t.bindings {
		pname := ""
		if p.producer != shadow.NoOwner {
			out[p.producer] += *bytes
			pname = t.kernels[p.producer].name
		}
		bindings = append(bindings, Binding{
			Producer: pname,
			Consumer: t.kernels[p.consumer].name,
			Bytes:    *bytes,
		})
	}
	var rows []KernelStats
	for id := 1; id < len(t.kernels); id++ {
		k := t.kernels[id]
		rows = append(rows, KernelStats{
			Name:    k.name,
			In:      k.inBytes,
			InUnMA:  k.readSet.Count(),
			Out:     out[uint16(id)],
			OutUnMA: k.writeSet.Count(),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	sort.Slice(bindings, func(i, j int) bool {
		if bindings[i].Bytes != bindings[j].Bytes {
			return bindings[i].Bytes > bindings[j].Bytes
		}
		if bindings[i].Producer != bindings[j].Producer {
			return bindings[i].Producer < bindings[j].Producer
		}
		return bindings[i].Consumer < bindings[j].Consumer
	})
	return &Report{Kernels: rows, Bindings: bindings}
}

// Kernel returns the stats row for one kernel name.
func (r *Report) Kernel(name string) (KernelStats, bool) {
	for _, k := range r.Kernels {
		if k.Name == name {
			return k, true
		}
	}
	return KernelStats{}, false
}

// QDUGraphDOT renders the QDU graph in Graphviz DOT form.  Edges thinner
// than minBytes are omitted to keep the graph readable (the paper's QDU
// graph was "not possible to include ... due to space limitations").
func (r *Report) QDUGraphDOT(minBytes uint64) string {
	var b strings.Builder
	b.WriteString("digraph QDU {\n  rankdir=LR;\n  node [shape=box];\n")
	nodes := make(map[string]bool)
	for _, e := range r.Bindings {
		if e.Bytes < minBytes || e.Producer == "" {
			continue
		}
		nodes[e.Producer] = true
		nodes[e.Consumer] = true
	}
	var names []string
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %q;\n", n)
	}
	for _, e := range r.Bindings {
		if e.Bytes < minBytes || e.Producer == "" {
			continue
		}
		fmt.Fprintf(&b, "  %q -> %q [label=\"%d\"];\n", e.Producer, e.Consumer, e.Bytes)
	}
	b.WriteString("}\n")
	return b.String()
}
