// CLI-style run report rendering, shared by cmd/tquad (stdout) and the
// jobd daemon (the report.txt artifact).  Extracted from cmd/tquad
// verbatim: the golden tests pin cmd/tquad's sweep output byte for
// byte, and the daemon smoke test asserts its report artifact matches
// the same sweep run through cmd/tquad — both hold because this is the
// single implementation.
package study

import (
	"fmt"
	"io"
	"sort"

	"tquad/internal/core"
	"tquad/internal/flatprof"
	"tquad/internal/memsim"
	"tquad/internal/phase"
	"tquad/internal/plot"
	"tquad/internal/quad"
	"tquad/internal/report"
	"tquad/internal/wfs"
)

// RenderOptions selects what a run report shows: which bandwidth metric
// is charted, which kernel set is listed, the chart width, and whether
// stack-area accesses count (must match the runs' IncludeStack).
type RenderOptions struct {
	Metric       string // reads, writes or both
	Kernels      string // top (ten), last (ten) or all
	Width        int    // chart width in characters
	IncludeStack bool
}

// Check reports the first option a report cannot render: a metric other
// than reads, writes or both, a kernel set other than top, last or all,
// or a negative width.  The error names the option with prefix in front
// ("-" names the command-line flag).
func (o RenderOptions) Check(prefix string) error {
	switch o.Metric {
	case "reads", "writes", "both":
	default:
		return fmt.Errorf("bad %smetric %q (want reads, writes or both)", prefix, o.Metric)
	}
	switch o.Kernels {
	case "top", "last", "all":
	default:
		return fmt.Errorf("bad %skernels %q (want top, last or all)", prefix, o.Kernels)
	}
	if o.Width < 0 {
		return fmt.Errorf("bad %swidth %d", prefix, o.Width)
	}
	return nil
}

// KernelSet resolves a kernel-selection word against a profile: "top"
// and "last" are the paper's fixed ten-kernel sets, anything else lists
// every kernel the profile saw, sorted by name.
func KernelSet(sel string, prof *core.Profile) []string {
	switch sel {
	case "top":
		return wfs.TopTenKernels()
	case "last":
		return wfs.LastTenKernels()
	}
	var names []string
	for _, k := range prof.Kernels {
		names = append(names, k.Name)
	}
	sort.Strings(names)
	return names
}

// Heatmap renders a run's bandwidth heatmap SVG (the paper's figure):
// one lane per kernel of the selected set, ordered by first activity.
func Heatmap(prof *core.Profile, opt RenderOptions) string {
	names := KernelSet(opt.Kernels, prof)
	return plot.Heatmap(prof, plot.SortLanesByFirstActivity(prof, names), plot.Options{
		Title:        fmt.Sprintf("tQUAD %s bandwidth (%s stack)", opt.Metric, stackWord(opt.IncludeStack)),
		Reads:        opt.Metric != "writes",
		IncludeStack: opt.IncludeStack,
	})
}

// WriteCharts writes the per-kernel bandwidth chart(s) selected by the
// metric option, each followed by a blank line.
func WriteCharts(w io.Writer, prof *core.Profile, names []string, opt RenderOptions) {
	if opt.Metric == "reads" || opt.Metric == "both" {
		io.WriteString(w, RenderFigure("reads (bytes per slice)", prof, names, true, opt.IncludeStack, opt.Width))
		fmt.Fprintln(w)
	}
	if opt.Metric == "writes" || opt.Metric == "both" {
		io.WriteString(w, RenderFigure("writes (bytes per slice)", prof, names, false, opt.IncludeStack, opt.Width))
		fmt.Fprintln(w)
	}
}

// SummaryTable renders the per-kernel statistics (Table IV's columns).
func SummaryTable(prof *core.Profile, names []string, includeStack bool) string {
	t := report.NewTable("kernel", "first", "last", "activity span",
		"avg rd B/i", "avg wr B/i", "max R+W B/i")
	for _, n := range names {
		k, ok := prof.Kernel(n)
		if !ok {
			continue
		}
		st := k.Stats(includeStack, prof.SliceInterval)
		t.AddRow(n, report.U(k.FirstSlice), report.U(k.LastSlice), report.U(k.ActivitySpan),
			report.F(st.AvgRead), report.F(st.AvgWrite), report.F(st.MaxRW))
	}
	return t.String()
}

// MemSummaryTable renders the per-kernel memory-hierarchy columns: hit
// rate per simulated level and the kernel's effective off-chip traffic.
func MemSummaryTable(mp *memsim.Profile, names []string) string {
	cols := []string{"kernel"}
	for _, lv := range mp.Levels {
		cols = append(cols, lv.Name+" hit%")
	}
	cols = append(cols, "fill bytes", "wb bytes", "off-chip bytes")
	t := report.NewTable(cols...)
	for _, n := range names {
		k, ok := mp.Kernel(n)
		if !ok {
			continue
		}
		row := []string{n}
		for i := range mp.Levels {
			row = append(row, report.F2(100*k.HitRate(i)))
		}
		row = append(row, report.U(k.Total.FillBytes), report.U(k.Total.WBBytes), report.U(k.OffChip()))
		t.AddRow(row...)
	}
	return t.String()
}

// WriteMemSection writes the memory-hierarchy results for one run: the
// off-chip (miss-bandwidth) chart, the per-kernel hit-rate/off-chip
// columns, and the hierarchy digest.
func WriteMemSection(w io.Writer, mp *memsim.Profile, names []string, width int) {
	fmt.Fprintln(w)
	io.WriteString(w, RenderMemFigure("off-chip (bytes per slice)", mp, names, width))
	fmt.Fprintln(w)
	io.WriteString(w, MemSummaryTable(mp, names))
	fmt.Fprintln(w)
	io.WriteString(w, mp.String())
}

// WriteTablesIToIII writes Tables I–III under their headings, as `tquad
// study` prints them and the daemon's tables.txt holds them: the flat
// profile, the QUAD summary of the stack-excluded and stack-included
// runs, and the flat profile of the QUAD-instrumented run beside flat.
func WriteTablesIToIII(w io.Writer, flat, instr *flatprof.Profile, quadEx, quadIn *quad.Report) {
	fmt.Fprintf(w, "### Table I — flat profile (gprof analogue)\n\n%s\n", RenderTableI(flat))
	fmt.Fprintf(w, "### Table II — QUAD producer/consumer summary\n\n%s\n", RenderTableII(quadEx, quadIn))
	fmt.Fprintf(w, "### Table III — flat profile of the QUAD-instrumented run\n\n%s\n", RenderTableIII(flat, instr))
}

// WriteTableIV writes Table IV under its heading as a fenced block: the
// phases detected over a run of numSlices 5000-instruction slices.
func WriteTableIV(w io.Writer, phases []phase.Phase, numSlices uint64) {
	fmt.Fprintf(w, "### Table IV — %d phases over %d slices of 5000 instructions\n\n```\n%s```\n",
		len(phases), numSlices, RenderTableIV(phases, numSlices))
}

// WriteRunReport writes one tQUAD run's report block: the header line,
// the charts, the kernel statistics, the memory-hierarchy section when
// the run simulated one, and the overhead breakdown.
func WriteRunReport(w io.Writer, res *RunResult, opt RenderOptions) {
	prof := res.Temporal
	fmt.Fprintf(w, "tQUAD: %d instructions, %d slices of %d instructions, slowdown %.1fx\n\n",
		prof.TotalInstr, prof.NumSlices, prof.SliceInterval,
		float64(res.Time)/float64(prof.TotalInstr))
	names := KernelSet(opt.Kernels, prof)
	WriteCharts(w, prof, names, opt)
	io.WriteString(w, SummaryTable(prof, names, opt.IncludeStack))
	if res.Mem != nil {
		WriteMemSection(w, res.Mem, names, opt.Width)
	}
	fmt.Fprintln(w)
	io.WriteString(w, res.Breakdown.String())
}

// WriteSweepReport writes a whole sweep's report: each run's block in
// submission order separated by blank lines, and — when cacheCmp is set
// (more than one hierarchy swept) — a closing side-by-side geometry
// comparison, one table per slice interval in sweep order.  results
// must be the sweep's tQUAD runs in interval-major, cache-minor order,
// matching the intervals slice.
func WriteSweepReport(w io.Writer, results []*RunResult, intervals []uint64, cacheCmp bool, opt RenderOptions) {
	memProfs := make(map[uint64][]*memsim.Profile, len(intervals))
	for i, res := range results {
		if i > 0 {
			fmt.Fprintln(w)
		}
		WriteRunReport(w, res, opt)
		if res.Mem != nil {
			memProfs[res.Temporal.SliceInterval] = append(memProfs[res.Temporal.SliceInterval], res.Mem)
		}
	}
	if cacheCmp {
		for _, iv := range intervals {
			fmt.Fprintf(w, "\ncache sweep comparison (slice %d):\n", iv)
			io.WriteString(w, RenderCacheSweep(memProfs[iv]))
		}
	}
}
