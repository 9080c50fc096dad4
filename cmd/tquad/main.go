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
// collapsed); more than one interval runs the whole sweep through the
// parallel experiment scheduler (bounded by -jobs, default GOMAXPROCS)
// and prints each run's charts and statistics in interval order.  If
// any run fails the command reports every failure and exits non-zero.
// The export flags (-csv, -json, -svg, -metrics, -trace, -journal)
// apply to single runs only.
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
// partially written -record file or sweep temp traces.  -max-icount
// overrides the guest instruction budget.  -retries re-runs transiently
// failed sweep runs with deterministic backoff and -resume DIR journals
// completed sweep runs (and the recorded trace) into DIR so a rerun
// skips completed guest work; both apply to multi-interval sweeps only.
//
// -record additionally captures the guest's dynamic event stream into a
// compact binary trace during a single-interval live run (flushed and
// fsynced before the success message prints); -replay then profiles
// that trace — at any slice interval, any number of times — without
// executing the guest again.  Replays verify the trace's checksums and
// fail on damage; -salvage instead replays around damaged chunks and
// reports exactly what was lost.  Inspect recorded traces with tqdump
// -etrace.
//
// -metrics writes a Prometheus text-format snapshot, -trace a
// chrome://tracing-compatible JSON trace of the pipeline stages (open it
// at chrome://tracing or https://ui.perfetto.dev), and -journal a JSONL
// event journal of spans and metrics.
//
// -serve starts an embedded telemetry server for the duration of the
// invocation (live runs and sweeps; not -replay): GET / is a live
// progress page with per-run progress bars and a bandwidth chart of
// completed runs, /metrics the Prometheus registry, /events a
// Server-Sent Events stream of run lifecycle events (append
// ?format=jsonl for plain JSONL), and /debug/pprof/ the Go profiler.
// -stall-window flags a run as stalled — a `stalled` event plus the
// tquad_sched_stalled_total counter — after that long without a
// heartbeat.  With -serve unset none of this machinery is built and the
// execution hot path is untouched.
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"

	"tquad/internal/cliutil"
	"tquad/internal/core"
	"tquad/internal/etrace"
	"tquad/internal/obs"
	"tquad/internal/pin"
	"tquad/internal/report"
	"tquad/internal/study"
	"tquad/internal/trace"
	"tquad/internal/vm"
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

// profileMain is bare `tquad`: the profiler.
func profileMain(args []string) {
	fs := command("tquad")
	var rf runFlags
	rf.register(fs)
	var (
		config     = fs.String("config", "small", "workload configuration: small or study")
		slice      = fs.String("slice", "0", "time slice interval(s) in instructions, comma-separated (0 = ~64 slices); more than one runs a parallel sweep")
		cache      = fs.String("cache", "", "simulate a cache hierarchy, e.g. l1=32k/8/64,l2=256k/8/64,llc=8m/16/64; semicolon-separated list sweeps hierarchies off one recorded execution")
		stack      = fs.String("stack", "include", "stack-area accesses: include or exclude")
		ignoreLibs = fs.Bool("ignore-libs", false, "exclude OS/library routine bandwidth")
		metric     = fs.String("metric", "reads", "plotted metric: reads, writes or both")
		kernels    = fs.String("kernels", "top", "kernel set: top (ten), last (ten) or all")
		width      = fs.Int("width", 64, "chart width in characters")
		csv        = fs.Bool("csv", false, "emit raw per-slice CSV instead of charts")
		jsonFile   = fs.String("json", "", "also write the full profile as JSON to this file")
		svgFile    = fs.String("svg", "", "render the bandwidth heatmap (the paper's figure) as SVG to this file")
		recordOut  = fs.String("record", "", "record the guest event stream to this file (single-interval live run)")
		replayIn   = fs.String("replay", "", "replay a recorded event stream instead of executing the guest")
		salvage    = fs.Bool("salvage", false, "with -replay: replay around damaged chunks and report the gap")
		replayJobs = fs.Int("replay-jobs", 1, "trace-decode workers for -replay and sweep replays: 1 = inline decode, 0 = GOMAXPROCS")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: tquad [flags]\n       tquad study|quad|gprof|phases|run|daemon [flags]\n\nProfiler flags:\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	cfg := lookupConfig(*config)
	includeStack := *stack == "include"
	if *stack != "include" && *stack != "exclude" {
		log.Fatalf("bad -stack %q", *stack)
	}
	if *replayJobs < 0 {
		log.Fatalf("bad -replay-jobs %d: must be >= 0", *replayJobs)
	}
	if *recordOut != "" && *replayIn != "" {
		log.Fatal("-record and -replay are mutually exclusive")
	}
	if *salvage && *replayIn == "" {
		log.Fatal("-salvage applies to -replay only")
	}
	if rf.serveAddr != "" && *replayIn != "" {
		log.Fatal("-serve applies to live runs and sweeps only, not -replay")
	}
	if err := rf.check("-json", *jsonFile, "-svg", *svgFile, "-record", *recordOut); err != nil {
		log.Fatal(err)
	}
	intervals, err := parseSlices(*slice)
	if err != nil {
		log.Fatal(err)
	}
	caches, err := parseCaches(*cache)
	if err != nil {
		log.Fatal(err)
	}

	// A sweep is any invocation with more than one run: several slice
	// intervals, several cache hierarchies, or both (the cross product).
	sweep := len(intervals) > 1 || len(caches) > 1
	if sweep {
		if *csv || *jsonFile != "" || *svgFile != "" || rf.exports() {
			log.Fatal("-csv, -json, -svg, -metrics, -trace and -journal apply to single runs only")
		}
		if *recordOut != "" {
			log.Fatal("-record applies to single runs only")
		}
	} else if rf.retries != 0 || rf.resume != "" {
		log.Fatal("-retries and -resume apply to sweeps only")
	}

	ctx, cancel := signalContext(rf.timeout)
	defer cancel()
	budget := rf.maxICount
	if budget == 0 {
		budget = wfs.MaxInstr
	}
	o := rf.observer()
	tel := rf.serve(o, "tquad "+*config)
	defer tel.close()

	out := &output{
		RenderOptions: study.RenderOptions{Metric: *metric, Kernels: *kernels, Width: *width, IncludeStack: includeStack},
		csv:           *csv,
		jsonFile:      *jsonFile,
		svgFile:       *svgFile,
		rf:            &rf,
	}
	if *replayIn != "" {
		err := runReplay(ctx, *replayIn, o, &replayOpts{
			output:     out,
			intervals:  intervals,
			caches:     caches,
			jobs:       *replayJobs,
			salvage:    *salvage,
			ignoreLibs: *ignoreLibs,
		})
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	if sweep {
		if err := runSweep(ctx, cfg, &rf, o, tel, intervals, caches, *ignoreLibs, *replayJobs, out.RenderOptions); err != nil {
			log.Fatal(err)
		}
		return
	}

	run := o.Tracer().Start("run")
	w, err := wfs.NewWorkloadObserved(cfg, o.Tracer())
	if err != nil {
		log.Fatal(err)
	}
	w.Interpret = rf.engine == "step"
	rc := study.RunConfig{Kind: study.RunTQUAD, SliceInterval: intervals[0], IncludeStack: includeStack, ExcludeLibs: *ignoreLibs}
	if rc.SliceInterval == 0 {
		// Dry-sizing: aim for ~64 slices like the paper's Figure 6, with a
		// native run under the invocation's deadline and budget.
		sch := replayOff(&study.Study{W: w}, 1)
		sch.SetContext(ctx)
		sch.SetMaxInstr(budget)
		rc.SliceInterval, err = sch.SliceForCount(64)
		sch.Close()
		if err != nil {
			log.Fatalf("sizing run for -slice 0: %v", err)
		}
	}
	if len(caches) == 1 {
		rc.Cache = caches[0]
	}
	instrument := o.Tracer().Start("instrument")
	m, _ := w.NewMachine()
	e := pin.NewEngine(m)
	tools, err := study.Attach(e, rc, o.Tracer())
	if err != nil {
		log.Fatal(err)
	}
	var (
		recFile *os.File
		recBuf  *bufio.Writer
		rec     *etrace.Recorder
	)
	if *recordOut != "" {
		recFile, err = os.Create(*recordOut)
		if err != nil {
			log.Fatal(err)
		}
		recBuf = bufio.NewWriterSize(recFile, 1<<16)
		rec, err = etrace.Record(e, recBuf, etrace.RecordOptions{Workload: "wfs/" + *config})
		if err != nil {
			log.Fatal(err)
		}
	}
	instrument.End()

	// Under -serve the single run reports the same lifecycle the sweep
	// scheduler would: queued/started up front, block-boundary heartbeats
	// while the guest executes, succeeded/failed at the end.
	const runKey = "run"
	tracker := tel.tracker
	if tracker != nil {
		tracker.Publish(obs.Event{Type: obs.EventQueued, Key: runKey})
		tracker.Publish(obs.Event{Type: obs.EventStarted, Key: runKey, Attempt: 1})
		var lastBeat uint64
		m.PushWatchdog(func(m *vm.Machine) error {
			if m.ICount-lastBeat >= study.DefaultHeartbeatStride {
				lastBeat = m.ICount
				tracker.Publish(obs.Event{Type: obs.EventHeartbeat, Key: runKey, ICount: m.ICount, Budget: budget})
			}
			return nil
		})
	}

	execute := o.Tracer().Start("execute")
	err = m.RunContext(ctx, budget)
	if err == nil && m.ExitCode != 0 {
		err = fmt.Errorf("guest exit code %d", m.ExitCode)
	}
	if err != nil {
		// A cancelled or failed run must not leave a partial trace file
		// behind masquerading as a recording.
		if recFile != nil {
			recFile.Close()
			os.Remove(*recordOut)
		}
		if tracker != nil {
			tracker.Publish(obs.Event{Type: obs.EventFailed, Key: runKey, Attempt: 1, Err: err.Error()})
		}
		log.Fatalf("run: %v", err)
	}
	execute.SetInstr(m.ICount)
	execute.SetBytes(m.MemStats.ReadBytes() + m.MemStats.WriteBytes())
	execute.End()
	if rec != nil {
		// Finish, flush, fsync, close — every error surfaced.  The fsync
		// means the success message below is a durability statement: once
		// printed, the trace survives a host crash.
		err := rec.Finish()
		if err == nil {
			err = recBuf.Flush()
		}
		if err == nil {
			err = recFile.Sync()
		}
		if cerr := recFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(*recordOut)
			log.Fatalf("record: %v", err)
		}
		fmt.Printf("event trace written to %s\n", *recordOut)
	}

	res := tools.Collect(m.ICount, m.Overhead, o)
	if tracker != nil {
		tracker.Publish(obs.Event{Type: obs.EventSucceeded, Key: runKey, ICount: m.ICount})
		tel.chart.Add(runKey, study.EffectiveBandwidth(res.Temporal))
	}
	m.PublishMetrics(o.Registry())
	e.PublishMetrics(o.Registry())
	if err := out.write(res, o, run); err != nil {
		log.Fatal(err)
	}
	if o != nil && !out.csv {
		fmt.Println()
		fmt.Print("pipeline stages:\n" + study.RenderSpans(o.Spans))
		if blocks := study.RenderBlockEngine(o.Metrics); blocks != "" {
			fmt.Println()
			fmt.Print("block execution engine:\n" + blocks)
		}
	}
}

// output is a single run's report configuration: what is printed and
// which export files are written.
type output struct {
	study.RenderOptions
	csv      bool
	jsonFile string
	svgFile  string
	rf       *runFlags // the -metrics, -trace and -journal paths
}

// write prints a single run's report — or its CSV — and writes the
// requested export files.  run is the run's open span: it ends before
// the exports are written, so the trace and journal cover the whole run.
func (out *output) write(res *study.RunResult, o *obs.Observer, run *obs.Span) error {
	prof := res.Temporal
	reportSpan := o.Tracer().Start("report")
	if out.jsonFile != "" {
		if err := writeFile(out.jsonFile, func(w io.Writer) error { return trace.SaveTemporal(w, prof) }); err != nil {
			return err
		}
	}
	if out.svgFile != "" {
		if err := os.WriteFile(out.svgFile, []byte(study.Heatmap(prof, out.RenderOptions)), 0o644); err != nil {
			return err
		}
		fmt.Printf("heatmap written to %s\n", out.svgFile)
	}
	if out.csv {
		fmt.Printf("tQUAD: %d instructions, %d slices of %d instructions, slowdown %.1fx\n\n",
			prof.TotalInstr, prof.NumSlices, prof.SliceInterval, float64(res.Time)/float64(prof.TotalInstr))
		emitCSV(prof, study.KernelSet(out.Kernels, prof), out.Metric, out.IncludeStack)
	} else {
		study.WriteRunReport(os.Stdout, res, out.RenderOptions)
	}
	reportSpan.End()
	run.End()
	if o == nil {
		return nil
	}
	if prof.TotalInstr > 0 {
		o.Metrics.Gauge("tquad_run_slowdown").Set(float64(res.Time) / float64(prof.TotalInstr))
	}
	return o.WriteFiles(out.rf.metricsOut, out.rf.traceOut, out.rf.journalOut)
}

// replayOpts carries a -replay invocation's settings.
type replayOpts struct {
	*output
	intervals  []uint64
	caches     []string // canonical hierarchy keys
	jobs       int      // decode workers; 1 decodes inline, 0 = GOMAXPROCS
	salvage    bool     // replay around damaged chunks instead of failing
	ignoreLibs bool
}

// runReplay profiles a recorded event trace at each requested interval
// (crossed with each requested cache hierarchy), sequentially — replays
// are cheap enough that a scheduler would be overkill, and they share no
// state.  ob observes the replay; exports exclude a multi-replay
// invocation, so it never serves more than one.
func runReplay(ctx context.Context, path string, ob *obs.Observer, o *replayOpts) error {
	caches := o.caches
	if len(caches) == 0 {
		caches = []string{""}
	}
	first := true
	for _, iv := range o.intervals {
		for _, cache := range caches {
			if !first {
				fmt.Println()
			}
			first = false
			if err := replayOne(ctx, path, iv, cache, ob, o); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayOne replays the trace once through the tQUAD tool and reports
// it exactly as the live single run does.
func replayOne(ctx context.Context, path string, interval uint64, cache string, ob *obs.Observer, o *replayOpts) error {
	run := ob.Tracer().Start("run")
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if interval == 0 {
		// Dry-sizing from the recording itself: no guest run needed, the
		// trailer already has the total instruction count.
		info, err := etrace.Stat(f)
		if err != nil || !info.Complete {
			// Dry-sizing needs the trailer's instruction total, which a
			// damaged trace may not have even in salvage mode.
			if o.salvage {
				return fmt.Errorf("%s: cannot size slices from a damaged trace; pass an explicit -slice", path)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			return fmt.Errorf("%s: incomplete trace (no end record)", path)
		}
		if interval = info.FinalICount / 64; interval == 0 {
			interval = 1
		}
	}

	instrument := ob.Tracer().Start("instrument")
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	pr, err := etrace.NewParallelReplayer(f, fi.Size(), etrace.ParallelOptions{Jobs: o.jobs, Salvage: o.salvage})
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	host := pr.NewConsumer()
	tools, err := study.Attach(host, study.RunConfig{
		Kind: study.RunTQUAD, SliceInterval: interval, IncludeStack: o.IncludeStack,
		ExcludeLibs: o.ignoreLibs, Cache: cache,
	}, ob.Tracer())
	if err != nil {
		return err
	}
	instrument.End()

	replay := ob.Tracer().Start("replay")
	if err := pr.ReplayContext(ctx); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	replay.SetInstr(host.ICount())
	rb, wb := host.Traffic()
	replay.SetBytes(rb + wb)
	replay.End()
	if rep := host.SalvageReport(); rep != nil && rep.Damaged() {
		fmt.Printf("salvage: %s\n", rep)
	}
	if host.ExitCode() != 0 {
		return fmt.Errorf("%s: recorded guest exit code %d", path, host.ExitCode())
	}

	res := tools.Collect(host.ICount(), host.Overhead(), ob)
	host.PublishMetrics(ob.Registry())
	return o.write(res, ob, run)
}

// runSweep executes one tQUAD run per interval×hierarchy combination
// through the supervised scheduler and prints each run's output in
// sweep order.  In replay mode (the scheduler default) the whole sweep
// shares one recorded guest execution, however many hierarchies it
// compares.
func runSweep(ctx context.Context, cfg wfs.Config, rf *runFlags, o *obs.Observer, tel *telemetry, intervals []uint64, caches []string, ignoreLibs bool, replayJobs int, opt study.RenderOptions) error {
	sch, _, closeSch, err := rf.supervised(ctx, cfg, o, tel, "run")
	if err != nil {
		return err
	}
	defer closeSch()
	sch.SetReplayJobs(replayJobs)
	resolved, pend, err := sch.SubmitSweep(intervals, caches, opt.IncludeStack, ignoreLibs)
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
	study.WriteSweepReport(os.Stdout, results, resolved, len(caches) > 1, opt)
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
