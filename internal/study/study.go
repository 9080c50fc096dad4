// Package study is the experiment harness for the paper's case study
// (Section V): its Scheduler runs the WFS workload under every profiler
// configuration the paper evaluates, and its renderers draw each table
// and figure.
// The benchmark harness (bench_test.go), the command-line tools and
// EXPERIMENTS.md are all built on this package.
package study

import (
	"fmt"
	"strings"

	"tquad/internal/core"
	"tquad/internal/flatprof"
	"tquad/internal/memsim"
	"tquad/internal/obs"
	"tquad/internal/phase"
	"tquad/internal/quad"
	"tquad/internal/report"
	"tquad/internal/wfs"
)

// Study wraps a workload, so one build of the guest binary serves every
// experiment its Schedulers run.
type Study struct {
	W *wfs.Workload

	// Obs collects metrics and pipeline spans across every experiment the
	// study runs.  Nil (or an Observer with nil components) disables the
	// corresponding collection at effectively zero cost.
	Obs *obs.Observer

	nativeIC uint64
}

// New builds the workload for the given configuration.
func New(cfg wfs.Config) (*Study, error) {
	return NewObserved(cfg, nil)
}

// NewObserved is New with an observer attached: workload construction is
// traced, and every subsequent run publishes its metrics and spans into
// the observer.
func NewObserved(cfg wfs.Config, o *obs.Observer) (*Study, error) {
	w, err := wfs.NewWorkloadObserved(cfg, o.Tracer())
	if err != nil {
		return nil, err
	}
	return &Study{W: w, Obs: o}, nil
}

// NativeICount runs the workload uninstrumented once (cached) and returns
// its instruction count — the denominator of every slowdown figure.
func (s *Study) NativeICount() (uint64, error) {
	if s.nativeIC != 0 {
		return s.nativeIC, nil
	}
	m, _, err := s.W.RunNative()
	if err != nil {
		return 0, err
	}
	s.nativeIC = m.ICount
	return s.nativeIC, nil
}

// SlowdownRow is one cell of the Section V.A overhead study.
type SlowdownRow struct {
	Tool          string
	SliceInterval uint64
	IncludeStack  bool
	Slowdown      float64 // simulated instrumented time / native time
}

// --- renderers ---

// RenderTableI renders the flat profile restricted to the paper's kernel
// inventory, in profile order.
func RenderTableI(p *flatprof.Profile) string {
	t := report.NewTable("kernel", "%time", "self seconds", "calls", "self ms/call", "total ms/call")
	known := make(map[string]bool)
	for _, k := range wfs.KernelNames() {
		known[k] = true
	}
	for _, r := range p.Rows {
		if !known[r.Name] {
			continue
		}
		t.AddRow(r.Name, report.F2(r.Pct), report.F(r.SelfSeconds), report.U(r.Calls),
			report.F(r.SelfMsCall), report.F(r.TotalMsCall))
	}
	return t.String()
}

// RenderTableII renders the QUAD producer/consumer summary for both stack
// modes side by side.
func RenderTableII(excl, incl *quad.Report) string {
	t := report.NewTable("kernel",
		"IN(ex)", "IN UnMA(ex)", "OUT(ex)", "OUT UnMA(ex)",
		"IN(in)", "IN UnMA(in)", "OUT(in)", "OUT UnMA(in)")
	for _, name := range wfs.KernelNames() {
		e, okE := excl.Kernel(name)
		i, okI := incl.Kernel(name)
		if !okE && !okI {
			continue
		}
		t.AddRow(name,
			report.U(e.In), report.U(e.InUnMA), report.U(e.Out), report.U(e.OutUnMA),
			report.U(i.In), report.U(i.InUnMA), report.U(i.Out), report.U(i.OutUnMA))
	}
	return t.String()
}

// RenderTableIII renders the instrumented-run comparison for the paper's
// top-ten kernels.
func RenderTableIII(baseline, instrumented *flatprof.Profile) string {
	t := report.NewTable("kernel", "%time", "self seconds", "rank", "trend")
	rows := flatprof.Compare(baseline, instrumented, wfs.TopTenKernels())
	for _, r := range rows {
		t.AddRow(r.Name, report.F2(r.Pct), report.F2(r.Seconds), report.I(r.Rank), r.Trend.Arrow())
	}
	return t.String()
}

// RenderTableIV renders the detected phases with per-kernel bandwidth
// statistics.
func RenderTableIV(phases []phase.Phase, totalSlices uint64) string {
	var b strings.Builder
	for i, ph := range phases {
		pct := 0.0
		if totalSlices > 0 {
			pct = 100 * float64(ph.Span()) / float64(totalSlices)
		}
		fmt.Fprintf(&b, "phase %d: slices %d-%d (span %d, %.2f%% of run)  aggregate MBW %.4f B/instr\n",
			i+1, ph.Start, ph.End-1, ph.Span(), pct, ph.AggregateMBW)
		t := report.NewTable("kernel", "activity span",
			"avg rd B/i (in)", "avg rd B/i (ex)", "avg wr B/i (in)", "avg wr B/i (ex)",
			"max R+W B/i (in)", "max R+W B/i (ex)")
		for _, k := range ph.Kernels {
			t.AddRow(k.Name, report.U(k.ActivitySpan),
				report.F(k.Stats.AvgRead), report.F(k.StatsExcl.AvgRead),
				report.F(k.Stats.AvgWrite), report.F(k.StatsExcl.AvgWrite),
				report.F(k.Stats.MaxRW), report.F(k.StatsExcl.MaxRW))
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderFigure renders a Figure 6/7-style bandwidth chart for the named
// kernels.
func RenderFigure(title string, prof *core.Profile, names []string, reads, includeStack bool, width int) string {
	series := make(map[string][]uint64, len(names))
	var present []string
	for _, n := range names {
		k, ok := prof.Kernel(n)
		if !ok {
			continue
		}
		present = append(present, n)
		series[n] = k.Series(prof.NumSlices, reads, includeStack)
	}
	return report.BandwidthChart(title, present, series, width)
}

// RenderCacheSweep renders the cache-geometry comparison: one row per
// simulated hierarchy, in submission order, with per-level hit rates and
// the effective off-chip traffic the demand bytes turned into.
func RenderCacheSweep(profs []*memsim.Profile) string {
	t := report.NewTable("config", "l1 hit%", "l2 hit%", "llc hit%",
		"off-chip bytes", "off-chip B/instr", "row hit%")
	for _, p := range profs {
		cols := []string{p.Config.Key()}
		for i := 0; i < memsim.MaxLevels; i++ {
			if i < len(p.Levels) {
				cols = append(cols, report.F2(100*p.Levels[i].HitRate()))
			} else {
				cols = append(cols, "-")
			}
		}
		bpi := 0.0
		if p.TotalInstr > 0 {
			bpi = float64(p.OffChipBytes()) / float64(p.TotalInstr)
		}
		cols = append(cols, report.U(p.OffChipBytes()), report.F(bpi),
			report.F2(100*p.DRAM.RowHitRate()))
		t.AddRow(cols...)
	}
	return t.String()
}

// RenderMemFigure renders the miss-bandwidth variant of the Figure 6/7
// charts: per-slice effective off-chip bytes per kernel, replacing the
// demand-byte series RenderFigure plots.
func RenderMemFigure(title string, mp *memsim.Profile, names []string, width int) string {
	series := make(map[string][]uint64, len(names))
	var present []string
	for _, n := range names {
		k, ok := mp.Kernel(n)
		if !ok {
			continue
		}
		present = append(present, n)
		series[n] = k.OffChipSeries(mp.NumSlices)
	}
	return report.BandwidthChart(title, present, series, width)
}

// RenderPhaseOffChip renders the Table IV companion column: for each
// detected phase, every phase kernel's effective off-chip traffic under
// the simulated hierarchy.  The memsim profile must use the same slice
// interval as the profile the phases were detected on.
func RenderPhaseOffChip(phases []phase.Phase, mp *memsim.Profile) string {
	var b strings.Builder
	for i, ph := range phases {
		t := report.NewTable("kernel", "off-chip bytes", "off-chip B/slice")
		for _, k := range ph.Kernels {
			kp, ok := mp.Kernel(k.Name)
			if !ok {
				continue
			}
			off := kp.RangeOffChip(ph.Start, ph.End)
			perSlice := 0.0
			if ph.Span() > 0 {
				perSlice = float64(off) / float64(ph.Span())
			}
			t.AddRow(k.Name, report.U(off), report.F(perSlice))
		}
		fmt.Fprintf(&b, "phase %d off-chip (slices %d-%d, %s):\n%s",
			i+1, ph.Start, ph.End-1, mp.Config.Key(), t.String())
	}
	return b.String()
}

// RenderSpans renders the recorded pipeline spans as an indented table —
// the textual counterpart of the chrome://tracing view.
func RenderSpans(tr *obs.Tracer) string {
	records := tr.Records()
	if len(records) == 0 {
		return ""
	}
	t := report.NewTable("stage", "start ms", "dur ms", "instr", "bytes")
	for _, r := range records {
		instr, bytes := "-", "-"
		if r.Instr != 0 {
			instr = report.U(r.Instr)
		}
		if r.Bytes != 0 {
			bytes = report.U(r.Bytes)
		}
		t.AddRow(strings.Repeat("  ", r.Depth)+r.Name,
			fmt.Sprintf("%.3f", float64(r.StartUS)/1000),
			fmt.Sprintf("%.3f", float64(r.DurUS)/1000),
			instr, bytes)
	}
	return t.String()
}

// RenderOverheadTotals renders the aggregate analysis-overhead accounting
// accumulated in the registry across every tQUAD run — the live analogue
// of Table III / Section V.A.  Returns "" when nothing was recorded.
func RenderOverheadTotals(reg *obs.Registry) string {
	if reg == nil {
		return ""
	}
	type comp struct{ name, calls, cost string }
	comps := []comp{
		{"trace", obs.Label("tquad_core_analysis_calls_total", "path", "trace"),
			obs.Label("tquad_core_overhead_instr_total", "component", "trace")},
		{"skip", obs.Label("tquad_core_analysis_calls_total", "path", "skip"),
			obs.Label("tquad_core_overhead_instr_total", "component", "skip")},
		{"prefetch", obs.Label("tquad_core_analysis_calls_total", "path", "prefetch"),
			obs.Label("tquad_core_overhead_instr_total", "component", "prefetch")},
		{"snapshot", "tquad_core_snapshots_total",
			obs.Label("tquad_core_overhead_instr_total", "component", "snapshot")},
	}
	var total uint64
	for _, c := range comps {
		total += reg.Counter(c.cost).Value()
	}
	if total == 0 {
		return ""
	}
	t := report.NewTable("component", "calls", "cost (instr)", "share")
	for _, c := range comps {
		cost := reg.Counter(c.cost).Value()
		t.AddRow(c.name, report.U(reg.Counter(c.calls).Value()), report.U(cost),
			fmt.Sprintf("%.1f%%", 100*float64(cost)/float64(total)))
	}
	t.AddRow("total", "", report.U(total), "100.0%")
	return t.String()
}

// RenderBlockEngine renders the block-execution-engine counters
// accumulated across every run in the registry: compile/seal activity,
// cache effectiveness, and how much of the instrumentation dispatch the
// per-block folding absorbed.  Returns "" when the block engine never
// ran (interpreter-only sessions).
func RenderBlockEngine(reg *obs.Registry) string {
	if reg == nil {
		return ""
	}
	entries := reg.Counter("tquad_vm_block_entries_total").Value()
	if entries == 0 {
		return ""
	}
	compiled := reg.Counter("tquad_vm_blocks_compiled_total").Value()
	fast := reg.Counter("tquad_vm_block_fast_runs_total").Value()
	folded := reg.Counter("tquad_pin_folded_calls_total").Value()
	dispatched := reg.Counter("tquad_pin_dispatched_calls_total").Value()
	pct := func(part, whole uint64) string {
		if whole == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
	}
	t := report.NewTable("block engine", "count", "share")
	t.AddRow("blocks compiled", report.U(compiled), "")
	t.AddRow("blocks sealed", report.U(reg.Counter("tquad_vm_blocks_sealed_total").Value()), "")
	t.AddRow("block entries", report.U(entries), "")
	t.AddRow("cache hits", report.U(entries-compiled), pct(entries-compiled, entries))
	t.AddRow("fast-path runs", report.U(fast), pct(fast, entries))
	t.AddRow("warm-up (step) runs", report.U(reg.Counter("tquad_vm_block_step_runs_total").Value()), "")
	t.AddRow("cache invalidations", report.U(reg.Counter("tquad_vm_block_invalidations_total").Value()), "")
	t.AddRow("blocks folded (pin)", report.U(reg.Counter("tquad_pin_blocks_folded_total").Value()), "")
	t.AddRow("analysis calls folded", report.U(folded), pct(folded, folded+dispatched))
	t.AddRow("analysis calls dispatched", report.U(dispatched), pct(dispatched, folded+dispatched))
	return t.String()
}

// RenderObsSummary renders the end-of-run observability summary: the
// pipeline span table and the aggregate overhead accounting.
func RenderObsSummary(o *obs.Observer) string {
	var b strings.Builder
	if spans := RenderSpans(o.Tracer()); spans != "" {
		b.WriteString("pipeline stages:\n")
		b.WriteString(spans)
	}
	if totals := RenderOverheadTotals(o.Registry()); totals != "" {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		b.WriteString("aggregate analysis overhead (all runs):\n")
		b.WriteString(totals)
	}
	if blocks := RenderBlockEngine(o.Registry()); blocks != "" {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		b.WriteString("block execution engine (all runs):\n")
		b.WriteString(blocks)
	}
	return b.String()
}

// RenderSlowdown renders the overhead study.
func RenderSlowdown(rows []SlowdownRow) string {
	t := report.NewTable("tool", "slice interval", "stack", "slowdown")
	for _, r := range rows {
		stack := "exclude"
		if r.IncludeStack {
			stack = "include"
		}
		iv := "-"
		if r.SliceInterval != 0 {
			iv = report.U(r.SliceInterval)
		}
		t.AddRow(r.Tool, iv, stack, fmt.Sprintf("%.1fx", r.Slowdown))
	}
	return t.String()
}
