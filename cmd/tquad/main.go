// Command tquad runs the tQUAD temporal memory-bandwidth profiler on the
// WFS case-study workload and prints per-kernel bandwidth series and
// statistics — the data behind the paper's Figures 6/7 and Table IV.
// Its subcommands run the rest of the paper's workflow from the same
// binary, each documented in its own file and under -h:
//
//	tquad study   the whole evaluation: Tables I-IV, Figures 6-7, slowdown
//	tquad quad    QUAD producer/consumer analysis (Table II)
//	tquad gprof   gprof-style flat profile (Tables I and III)
//	tquad phases  execution-phase detection (Table IV)
//	tquad run     native run verified against the host DSP (-overhead)
//	tquad daemon  the analysis daemon: sweeps as durable HTTP jobs
//
// Usage of the profiler:
//
//	tquad [-config small|study] [-slice N[,N...]] [-cache SPEC[;SPEC...]]
//	      [-jobs N]
//	      [-timeout D] [-max-icount N] [-retries N] [-resume DIR]
//	      [-stack include|exclude] [-ignore-libs]
//	      [-metric reads|writes|both] [-kernels top|last|all]
//	      [-width N] [-csv]
//	      [-record FILE] [-replay FILE [-salvage]]
//	      [-metrics FILE] [-trace FILE] [-journal FILE]
//	      [-serve ADDR] [-stall-window D]
//
// -slice accepts a comma-separated list of intervals (duplicates are
// collapsed); more than one interval is a sweep, run in parallel (bounded
// by -jobs, default GOMAXPROCS), whose charts and statistics print in
// interval order.  Every invocation, a single run included, goes through
// the one supervised experiment scheduler.  A plain single run — one
// interval, at most one cache, no -record, -replay or -resume — executes
// the guest live; every other invocation records it once (or adopts the
// -replay trace) and replays the recording for all its runs in one
// decode pass.  If any run fails the command reports every failure and
// exits non-zero without a report.  The export flags (-csv, -json, -svg,
// -metrics, -trace, -journal) apply to single runs only.
//
// -cache additionally simulates a memory hierarchy (set-associative LRU
// caches with write-back/write-allocate plus a DRAM open-row model) over
// the same access stream, e.g. -cache l1=32k/8/64,l2=256k/8/64,llc=8m/16/64
// (per level: capacity/ways/line-size; k/m/g suffixes allowed).  The run
// gains a per-kernel hit-rate/off-chip table, an off-chip bytes-per-slice
// chart and a hierarchy digest.  A semicolon-separated list of
// hierarchies sweeps cache geometries: all of them — crossed with every
// -slice interval — are profiled off a single recorded guest execution
// and a closing comparison table ranks the geometries.
//
// Execution is supervised: SIGINT/SIGTERM (and the -timeout deadline)
// stop the guest at its next basic block and exit cleanly, removing any
// partially written -record file or temp traces.  -max-icount
// overrides the guest instruction budget.  -retries re-runs transiently
// failed runs with deterministic backoff and -resume DIR journals
// completed runs (and the recorded trace) into DIR so a rerun skips
// completed guest work; -resume keeps its own recording, so it excludes
// -record and -replay.
//
// -record keeps the scheduler's recording of the guest's dynamic event
// stream as a compact binary trace: it appears at FILE only once
// complete and fsynced, before the `event trace written to` line
// prints, and a failed recording leaves no FILE.  -replay profiles such
// a trace — at any slice intervals and cache hierarchies, any number of
// times — without executing the guest.  Replays verify the trace's
// checksums and fail on damage; a -replay trace is read-only input,
// never re-recorded or rewritten.  -salvage instead replays around
// damaged chunks and reports exactly what was lost.  Inspect recorded
// traces with tqdump -etrace.
//
// -metrics writes a Prometheus text-format snapshot, -trace a
// chrome://tracing-compatible JSON trace of the pipeline stages (open it
// at chrome://tracing or https://ui.perfetto.dev), and -journal a JSONL
// event journal of spans and metrics.
//
// -serve starts an embedded telemetry server for the duration of the
// invocation: GET / is a live progress page with per-run progress bars
// and a bandwidth chart of completed runs, /metrics the Prometheus
// registry, /events a Server-Sent Events stream of run lifecycle events
// (append ?format=jsonl for plain JSONL), and /debug/pprof/ the Go
// profiler.
// -stall-window flags a run as stalled — a `stalled` event plus the
// tquad_sched_stalled_total counter — after that long without a
// heartbeat.  With -serve unset none of this machinery is built and the
// execution hot path is untouched.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"

	"tquad/internal/cliutil"
	"tquad/internal/core"
	"tquad/internal/obs"
	"tquad/internal/report"
	"tquad/internal/study"
	"tquad/internal/trace"
	"tquad/internal/wfs"
)

// subcommands maps each subcommand's name to its entry point, which
// parses the arguments that follow the name.
var subcommands = map[string]func(args []string){
	"study":  studyMain,
	"quad":   quadMain,
	"gprof":  gprofMain,
	"phases": phasesMain,
	"run":    runMain,
	"daemon": daemonMain,
}

func main() {
	if len(os.Args) > 1 {
		if sub, ok := subcommands[os.Args[1]]; ok {
			sub(os.Args[2:])
			return
		}
	}
	profileMain(os.Args[1:])
}

// profiler is one invocation of bare `tquad`, the profiler.
type profiler struct {
	rf         runFlags
	opt        study.RenderOptions
	intervals  []uint64
	caches     []string // canonical hierarchy keys
	ignoreLibs bool
	csv        bool
	jsonFile   string
	svgFile    string
	record     string
	replay     string
	salvage    bool
	replayJobs int
}

// profileMain is bare `tquad`: the profiler.
func profileMain(args []string) {
	fs := command("tquad")
	var p profiler
	p.rf.register(fs)
	config := fs.String("config", "small", "workload configuration: small or study")
	slice := fs.String("slice", "0", "time slice interval(s) in instructions, comma-separated (0 = ~64 slices); more than one runs a parallel sweep")
	cache := fs.String("cache", "", "simulate a cache hierarchy, e.g. l1=32k/8/64,l2=256k/8/64,llc=8m/16/64; semicolon-separated list sweeps hierarchies off one recorded execution")
	stack := fs.String("stack", "include", "stack-area accesses: include or exclude")
	fs.BoolVar(&p.ignoreLibs, "ignore-libs", false, "exclude OS/library routine bandwidth")
	fs.StringVar(&p.opt.Metric, "metric", "reads", "plotted metric: reads, writes or both")
	fs.StringVar(&p.opt.Kernels, "kernels", "top", "kernel set: top (ten), last (ten) or all")
	fs.IntVar(&p.opt.Width, "width", 64, "chart width in characters")
	fs.BoolVar(&p.csv, "csv", false, "emit raw per-slice CSV instead of charts")
	fs.StringVar(&p.jsonFile, "json", "", "also write the full profile as JSON to this file")
	fs.StringVar(&p.svgFile, "svg", "", "render the bandwidth heatmap (the paper's figure) as SVG to this file")
	fs.StringVar(&p.record, "record", "", "record the guest event stream to this file")
	fs.StringVar(&p.replay, "replay", "", "replay a recorded event stream instead of executing the guest")
	fs.BoolVar(&p.salvage, "salvage", false, "with -replay: replay around damaged chunks and report the gap")
	fs.IntVar(&p.replayJobs, "replay-jobs", 1, "trace-decode workers for replays: 1 = inline decode, 0 = GOMAXPROCS")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: tquad [flags]\n       tquad study|quad|gprof|phases|run|daemon [flags]\n\nProfiler flags:\n")
		fs.PrintDefaults()
	}
	parse(fs, args)

	cfg := lookupConfig(*config)
	p.opt.IncludeStack = *stack == "include"
	if *stack != "include" && *stack != "exclude" {
		log.Fatalf("bad -stack %q", *stack)
	}
	if err := p.opt.Check("-"); err != nil {
		log.Fatal(err)
	}
	if p.replayJobs < 0 {
		log.Fatalf("bad -replay-jobs %d: must be >= 0", p.replayJobs)
	}
	if p.record != "" && p.replay != "" {
		log.Fatal("-record and -replay are mutually exclusive")
	}
	if p.salvage && p.replay == "" {
		log.Fatal("-salvage applies to -replay only")
	}
	if p.rf.resume != "" && (p.record != "" || p.replay != "") {
		log.Fatal("-resume excludes -record and -replay: the checkpoint journal holds its own recording")
	}
	if err := p.rf.check("-json", p.jsonFile, "-svg", p.svgFile, "-record", p.record); err != nil {
		log.Fatal(err)
	}
	var err error
	if p.intervals, err = parseSlices(*slice); err != nil {
		log.Fatal(err)
	}
	if p.caches, err = parseCaches(*cache); err != nil {
		log.Fatal(err)
	}
	if !p.single() && (p.csv || p.jsonFile != "" || p.svgFile != "" || p.rf.exports()) {
		log.Fatal("-csv, -json, -svg, -metrics, -trace and -journal apply to single runs only")
	}

	ctx, cancel := signalContext(p.rf.timeout)
	defer cancel()
	if err := p.runSweep(ctx, cfg, "tquad "+*config); err != nil {
		log.Fatal(err)
	}
}

// single reports whether the invocation is one run: one slice interval
// and at most one cache hierarchy.
func (p *profiler) single() bool { return len(p.intervals) == 1 && len(p.caches) <= 1 }

// runSweep executes one tQUAD run per interval×hierarchy combination
// through the supervised scheduler, titled title under -serve, and
// prints the report.  A plain single run — no -record, -replay or
// -resume — executes the guest live, since recording and then replaying
// would cost more.  Every other invocation records the guest once, or
// adopts the -replay trace, and replays that recording for all its runs
// in one decode pass.  Returning (rather than exiting) on failure lets
// the deferred shutdown remove temp traces and flush the journal first.
func (p *profiler) runSweep(ctx context.Context, cfg wfs.Config, title string) error {
	o := p.rf.observer()
	tel := p.rf.serve(o, title)
	defer tel.close()
	sch, _, closeSch, err := p.rf.supervised(ctx, cfg, o, tel, "run")
	if err != nil {
		return err
	}
	defer closeSch()
	sch.SetReplay(!p.single() || p.record != "" || p.replay != "" || p.rf.resume != "")
	sch.SetReplayJobs(p.replayJobs)
	if p.replay != "" {
		sch.SetTraceSource(p.replay, p.salvage)
	}
	if p.record != "" {
		sch.SetTraceSink(p.record)
	}
	resolved, pend, err := sch.SubmitSweep(p.intervals, p.caches, p.opt.IncludeStack, p.ignoreLibs)
	if err != nil {
		return err
	}
	// Drain the sweep before printing: any failure means a non-zero exit
	// with no partial output.
	if errs := sch.Flush(); len(errs) > 0 {
		for _, e := range errs {
			log.Print(e)
		}
		return fmt.Errorf("%d of %d runs failed", len(errs), len(pend))
	}
	results, err := study.WaitAll(pend...)
	if err != nil {
		return err
	}
	for _, res := range results {
		tel.chart.Add(res.Key, study.EffectiveBandwidth(res.Temporal))
	}
	return p.write(results, resolved, o)
}

// write prints the -record and -salvage notes, then the report — or a
// single run's CSV — and writes the requested export files.
func (p *profiler) write(results []*study.RunResult, intervals []uint64, o *obs.Observer) error {
	reportSpan := o.Tracer().Start("report")
	if p.record != "" {
		fmt.Printf("event trace written to %s\n", p.record)
	}
	// Every run replays the one adopted trace, so one line speaks for all.
	if rep := results[0].Salvage; rep != nil && rep.Damaged() {
		fmt.Printf("salvage: %s\n", rep)
	}
	res, prof := results[0], results[0].Temporal
	if p.jsonFile != "" {
		if err := writeFile(p.jsonFile, func(w io.Writer) error { return trace.SaveTemporal(w, prof) }); err != nil {
			return err
		}
	}
	if p.svgFile != "" {
		if err := os.WriteFile(p.svgFile, []byte(study.Heatmap(prof, p.opt)), 0o644); err != nil {
			return err
		}
		fmt.Printf("heatmap written to %s\n", p.svgFile)
	}
	if p.csv {
		fmt.Printf("tQUAD: %d instructions, %d slices of %d instructions, slowdown %.1fx\n\n",
			prof.TotalInstr, prof.NumSlices, prof.SliceInterval, float64(res.Time)/float64(prof.TotalInstr))
		emitCSV(prof, study.KernelSet(p.opt.Kernels, prof), p.opt.Metric, p.opt.IncludeStack)
	} else {
		study.WriteSweepReport(os.Stdout, results, intervals, len(p.caches) > 1, p.opt)
	}
	reportSpan.End()
	// A sweep's observer only feeds -serve: the exports and the pipeline
	// tables belong to single runs.
	if o == nil || !p.single() {
		return nil
	}
	if prof.TotalInstr > 0 {
		o.Metrics.Gauge("tquad_run_slowdown").Set(float64(res.Time) / float64(prof.TotalInstr))
	}
	if err := o.WriteFiles(p.rf.metricsOut, p.rf.traceOut, p.rf.journalOut); err != nil {
		return err
	}
	if !p.csv {
		fmt.Print("\npipeline stages:\n" + study.RenderSpans(o.Spans))
		if blocks := study.RenderBlockEngine(o.Metrics); blocks != "" {
			fmt.Print("\nblock execution engine:\n" + blocks)
		}
	}
	return nil
}

// parseSlices parses the -slice flag: a comma-separated list of
// non-negative interval values.  Empty elements (from "1,,2", a leading
// or trailing comma, or an empty flag) are rejected rather than silently
// dropped, and duplicate intervals collapse to the first occurrence so a
// sweep never runs — or prints — the same configuration twice.
func parseSlices(s string) ([]uint64, error) {
	return cliutil.ParseList("-slice", s, ",",
		func(part string) (uint64, error) {
			iv, err := strconv.ParseUint(part, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("not a non-negative integer")
			}
			return iv, nil
		},
		func(iv uint64) string { return strconv.FormatUint(iv, 10) })
}

func emitCSV(prof *core.Profile, names []string, metric string, includeStack bool) {
	header := append([]string{"slice"}, names...)
	rows := make([][]float64, prof.NumSlices)
	series := make(map[string][]uint64, len(names))
	for _, n := range names {
		if k, ok := prof.Kernel(n); ok {
			series[n] = k.Series(prof.NumSlices, metric != "writes", includeStack)
		} else {
			series[n] = make([]uint64, prof.NumSlices)
		}
	}
	for s := uint64(0); s < prof.NumSlices; s++ {
		row := []float64{float64(s)}
		for _, n := range names {
			row = append(row, float64(series[n][s]))
		}
		rows[s] = row
	}
	os.Stdout.WriteString(report.CSV(header, rows))
}
