// Command tquad runs the tQUAD temporal memory-bandwidth profiler on the
// WFS case-study workload and prints per-kernel bandwidth series and
// statistics — the data behind the paper's Figures 6/7 and Table IV.
//
// Usage:
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
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"tquad/internal/cliutil"
	"tquad/internal/core"
	"tquad/internal/etrace"
	"tquad/internal/memsim"
	"tquad/internal/obs"
	"tquad/internal/obs/live"
	"tquad/internal/pin"
	"tquad/internal/plot"
	"tquad/internal/report"
	"tquad/internal/study"
	"tquad/internal/trace"
	"tquad/internal/vm"
	"tquad/internal/wfs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tquad: ")
	var (
		config     = flag.String("config", "small", "workload configuration: small or study")
		slice      = flag.String("slice", "0", "time slice interval(s) in instructions, comma-separated (0 = ~64 slices); more than one runs a parallel sweep")
		cache      = flag.String("cache", "", "simulate a cache hierarchy, e.g. l1=32k/8/64,l2=256k/8/64,llc=8m/16/64; semicolon-separated list sweeps hierarchies off one recorded execution")
		jobs       = flag.Int("jobs", 0, "maximum concurrently executing runs in a -slice sweep (0 = GOMAXPROCS)")
		stack      = flag.String("stack", "include", "stack-area accesses: include or exclude")
		ignoreLibs = flag.Bool("ignore-libs", false, "exclude OS/library routine bandwidth")
		metric     = flag.String("metric", "reads", "plotted metric: reads, writes or both")
		kernels    = flag.String("kernels", "top", "kernel set: top (ten), last (ten) or all")
		width      = flag.Int("width", 64, "chart width in characters")
		csv        = flag.Bool("csv", false, "emit raw per-slice CSV instead of charts")
		jsonFile   = flag.String("json", "", "also write the full profile as JSON to this file")
		svgFile    = flag.String("svg", "", "render the bandwidth heatmap (the paper's figure) as SVG to this file")
		metricsOut = flag.String("metrics", "", "write a Prometheus text-format metrics snapshot to this file")
		traceOut   = flag.String("trace", "", "write a chrome://tracing JSON trace of the pipeline stages to this file")
		journalOut = flag.String("journal", "", "write a JSONL event journal (spans + metrics) to this file")
		recordOut  = flag.String("record", "", "record the guest event stream to this file (single-interval live run)")
		replayIn   = flag.String("replay", "", "replay a recorded event stream instead of executing the guest")
		salvage    = flag.Bool("salvage", false, "with -replay: replay around damaged chunks and report the gap")
		replayJobs = flag.Int("replay-jobs", 1, "trace-decode workers for -replay and sweep replays: 1 = inline decode, 0 = GOMAXPROCS")
		timeout    = flag.Duration("timeout", 0, "wall-clock deadline for the whole invocation (0 = none)")
		maxICount  = flag.Uint64("max-icount", 0, "guest instruction budget per run (0 = default)")
		retries    = flag.Int("retries", 0, "sweep only: retries per run after transient failures")
		resume     = flag.String("resume", "", "sweep only: checkpoint journal directory for resumable sweeps")
		engine     = flag.String("engine", "block", "execution engine: block (pre-decoded basic blocks) or step (reference interpreter)")
		serveAddr  = flag.String("serve", "", "serve live telemetry (progress page, /metrics, /events, pprof) on this address, e.g. :8080")
		stallWin   = flag.Duration("stall-window", 10*time.Second, "with -serve: flag a run as stalled after this long without a heartbeat (0 = never)")
	)
	flag.Parse()

	cfg, err := pickConfig(*config)
	if err != nil {
		log.Fatal(err)
	}
	includeStack := *stack == "include"
	if *stack != "include" && *stack != "exclude" {
		log.Fatalf("bad -stack %q", *stack)
	}
	if *jobs < 0 {
		log.Fatalf("bad -jobs %d: must be >= 0", *jobs)
	}
	if *replayJobs < 0 {
		log.Fatalf("bad -replay-jobs %d: must be >= 0", *replayJobs)
	}
	if *retries < 0 {
		log.Fatalf("bad -retries %d: must be >= 0", *retries)
	}
	if *engine != "block" && *engine != "step" {
		log.Fatalf("bad -engine %q: must be block or step", *engine)
	}
	interpret := *engine == "step"
	if *recordOut != "" && *replayIn != "" {
		log.Fatal("-record and -replay are mutually exclusive")
	}
	if *salvage && *replayIn == "" {
		log.Fatal("-salvage applies to -replay only")
	}
	if *serveAddr != "" && *replayIn != "" {
		log.Fatal("-serve applies to live runs and sweeps only, not -replay")
	}
	// Every output path is probed before any guest work: a typo'd export
	// flag fails in milliseconds, not after the run.
	if err := cliutil.EnsureWritableAll(
		"-json", *jsonFile, "-svg", *svgFile, "-metrics", *metricsOut,
		"-trace", *traceOut, "-journal", *journalOut, "-record", *recordOut,
	); err != nil {
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
		if *csv || *jsonFile != "" || *svgFile != "" || *metricsOut != "" || *traceOut != "" || *journalOut != "" {
			log.Fatal("-csv, -json, -svg, -metrics, -trace and -journal apply to single runs only")
		}
		if *recordOut != "" {
			log.Fatal("-record applies to single runs only")
		}
	} else if *retries != 0 || *resume != "" {
		log.Fatal("-retries and -resume apply to sweeps only")
	}

	// SIGINT/SIGTERM (and -timeout) cancel the run context: the guest
	// stops at its next basic block, partial outputs are removed, and
	// the process exits non-zero instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	budget := *maxICount
	if budget == 0 {
		budget = wfs.MaxInstr
	}

	// The live telemetry server, its run tracker and the shared metrics
	// registry exist only under -serve; everywhere else the sink stays
	// nil and the hot path runs exactly as before.
	var (
		liveObs *obs.Observer
		tracker *live.Tracker
		chart   *live.ChartData
	)
	if *serveAddr != "" {
		liveObs = obs.NewObserver()
		chart = live.NewChartData("effective bandwidth of completed runs", "B/instr")
		tracker = live.NewTracker(live.TrackerOptions{Registry: liveObs.Registry(), StallWindow: *stallWin})
		defer tracker.Close()
		srv, err := live.Serve(*serveAddr, live.Options{
			Registry: liveObs.Registry(),
			Tracker:  tracker,
			Chart:    chart.SVG,
			Title:    "tquad " + *config,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		// The bound address goes to stdout: with -serve :0 the kernel picks
		// the port, and scripts (and the daemon's tests) read it from here.
		fmt.Printf("live telemetry at %s\n", srv.URL())
	}

	if *replayIn != "" {
		err := runReplay(ctx, *replayIn, &replayOpts{
			intervals:    intervals,
			caches:       caches,
			jobs:         *replayJobs,
			salvage:      *salvage,
			includeStack: includeStack,
			ignoreLibs:   *ignoreLibs,
			stack:        *stack,
			metric:       *metric,
			kernels:      *kernels,
			width:        *width,
			csv:          *csv,
			jsonFile:     *jsonFile,
			svgFile:      *svgFile,
			metricsOut:   *metricsOut,
			traceOut:     *traceOut,
			journalOut:   *journalOut,
		})
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	if sweep {
		sup := supervision{
			ctx: ctx, retries: *retries, resume: *resume, budget: budget,
			interpret: interpret, replayJobs: *replayJobs,
			obs: liveObs, events: tracker, chart: chart,
		}
		if err := runSweep(cfg, intervals, caches, includeStack, *ignoreLibs, *jobs, *metric, *kernels, *width, sup); err != nil {
			log.Fatal(err)
		}
		return
	}

	// The observer stays nil (zero-cost) unless an export was requested
	// or the telemetry server needs a registry to publish into.
	o := liveObs
	if o == nil && (*metricsOut != "" || *traceOut != "" || *journalOut != "") {
		o = obs.NewObserver()
	}
	run := o.Tracer().Start("run")

	w, err := wfs.NewWorkloadObserved(cfg, o.Tracer())
	if err != nil {
		log.Fatal(err)
	}
	w.Interpret = interpret
	instrument := o.Tracer().Start("instrument")
	m, _ := w.NewMachine()
	e := pin.NewEngine(m)
	interval := intervals[0]
	if interval == 0 {
		// Dry-sizing: aim for ~64 slices like the paper's Figure 6.
		s, err := study.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		interval, err = s.SliceForCount(64)
		if err != nil {
			log.Fatal(err)
		}
	}
	tool := core.Attach(e, core.Options{
		SliceInterval: interval,
		IncludeStack:  includeStack,
		ExcludeLibs:   *ignoreLibs,
	})
	var memTool *memsim.Tool
	if len(caches) == 1 {
		memTool, err = memsim.Attach(e, memsim.Options{
			Config:        caches[0],
			SliceInterval: interval,
			ExcludeLibs:   *ignoreLibs,
		})
		if err != nil {
			log.Fatal(err)
		}
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
	if err := m.RunContext(ctx, budget); err != nil {
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

	snapshot := o.Tracer().Start("snapshot")
	prof := tool.Snapshot()
	snapshot.SetInstr(prof.TotalInstr)
	snapshot.End()
	if tracker != nil {
		tracker.Publish(obs.Event{Type: obs.EventSucceeded, Key: runKey, ICount: m.ICount})
		chart.Add(runKey, study.EffectiveBandwidth(prof))
	}
	// finish closes the run span, publishes the per-run metrics and writes
	// the requested export files; it must run on every exit path that
	// produced a profile.
	finish := func(reportSpan *obs.Span) {
		reportSpan.End()
		run.End()
		if o == nil {
			return
		}
		m.PublishMetrics(o.Metrics)
		e.PublishMetrics(o.Metrics)
		tool.PublishMetrics(o.Metrics)
		if memTool != nil {
			memTool.PublishMetrics(o.Metrics)
		}
		if prof.TotalInstr > 0 {
			o.Metrics.Gauge("tquad_run_slowdown").Set(float64(m.Time()) / float64(prof.TotalInstr))
		}
		if err := o.WriteFiles(*metricsOut, *traceOut, *journalOut); err != nil {
			log.Fatal(err)
		}
	}

	reportSpan := o.Tracer().Start("report")
	if *jsonFile != "" {
		fh, err := os.Create(*jsonFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.SaveTemporal(fh, prof); err != nil {
			log.Fatal(err)
		}
		fh.Close()
	}

	names := study.KernelSet(*kernels, prof)
	if *svgFile != "" {
		svg := plot.Heatmap(prof, plot.SortLanesByFirstActivity(prof, names), plot.Options{
			Title:        fmt.Sprintf("tQUAD %s bandwidth (%s)", *metric, *stack+" stack"),
			Reads:        *metric != "writes",
			IncludeStack: includeStack,
		})
		if err := os.WriteFile(*svgFile, []byte(svg), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("heatmap written to %s\n", *svgFile)
	}
	fmt.Printf("tQUAD: %d instructions, %d slices of %d instructions, slowdown %.1fx\n\n",
		prof.TotalInstr, prof.NumSlices, prof.SliceInterval,
		float64(m.Time())/float64(prof.TotalInstr))

	if *csv {
		emitCSV(prof, names, *metric, includeStack)
		finish(reportSpan)
		return
	}
	study.WriteCharts(os.Stdout, prof, names, study.RenderOptions{
		Metric: *metric, Width: *width, IncludeStack: includeStack,
	})
	fmt.Print(study.SummaryTable(prof, names, includeStack))
	if memTool != nil {
		study.WriteMemSection(os.Stdout, memTool.Snapshot(), names, *width)
	}

	// End-of-run overhead accounting — the live analogue of the paper's
	// Table III / Section V.A breakdown.
	fmt.Println()
	fmt.Print(tool.Breakdown().String())
	finish(reportSpan)
	if o != nil {
		fmt.Println()
		fmt.Print("pipeline stages:\n" + study.RenderSpans(o.Spans))
		if blocks := study.RenderBlockEngine(o.Metrics); blocks != "" {
			fmt.Println()
			fmt.Print("block execution engine:\n" + blocks)
		}
	}
}

// replayOpts carries the output configuration of a -replay invocation.
type replayOpts struct {
	intervals    []uint64
	caches       []memsim.Config
	jobs         int  // decode workers; 1 decodes inline, 0 = GOMAXPROCS
	salvage      bool // replay around damaged chunks instead of failing
	includeStack bool
	ignoreLibs   bool
	stack        string
	metric       string
	kernels      string
	width        int
	csv          bool
	jsonFile     string
	svgFile      string
	metricsOut   string
	traceOut     string
	journalOut   string
}

// runReplay profiles a recorded event trace at each requested interval
// (crossed with each requested cache hierarchy), sequentially — replays
// are cheap enough that a scheduler would be overkill, and they share no
// state.
func runReplay(ctx context.Context, path string, o *replayOpts) error {
	mcs := []*memsim.Config{nil}
	if len(o.caches) > 0 {
		mcs = mcs[:0]
		for i := range o.caches {
			mcs = append(mcs, &o.caches[i])
		}
	}
	first := true
	for _, iv := range o.intervals {
		for _, mc := range mcs {
			if !first {
				fmt.Println()
			}
			first = false
			if err := replayOne(ctx, path, iv, mc, o); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayOne replays the trace once through the tQUAD tool, mirroring the
// live single-run path's output (charts, statistics, exports).
func replayOne(ctx context.Context, path string, interval uint64, mc *memsim.Config, o *replayOpts) error {
	var ob *obs.Observer
	if o.metricsOut != "" || o.traceOut != "" || o.journalOut != "" {
		ob = obs.NewObserver()
	}
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
	tool := core.Attach(host, core.Options{
		SliceInterval: interval,
		IncludeStack:  o.includeStack,
		ExcludeLibs:   o.ignoreLibs,
	})
	var memTool *memsim.Tool
	if mc != nil {
		memTool, err = memsim.Attach(host, memsim.Options{
			Config:        *mc,
			SliceInterval: interval,
			ExcludeLibs:   o.ignoreLibs,
		})
		if err != nil {
			return err
		}
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

	snapshot := ob.Tracer().Start("snapshot")
	prof := tool.Snapshot()
	snapshot.SetInstr(prof.TotalInstr)
	snapshot.End()

	reportSpan := ob.Tracer().Start("report")
	if o.jsonFile != "" {
		fh, err := os.Create(o.jsonFile)
		if err != nil {
			return err
		}
		if err := trace.SaveTemporal(fh, prof); err != nil {
			return err
		}
		fh.Close()
	}
	names := study.KernelSet(o.kernels, prof)
	if o.svgFile != "" {
		svg := plot.Heatmap(prof, plot.SortLanesByFirstActivity(prof, names), plot.Options{
			Title:        fmt.Sprintf("tQUAD %s bandwidth (%s)", o.metric, o.stack+" stack"),
			Reads:        o.metric != "writes",
			IncludeStack: o.includeStack,
		})
		if err := os.WriteFile(o.svgFile, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Printf("heatmap written to %s\n", o.svgFile)
	}
	fmt.Printf("tQUAD (replay of %s): %d instructions, %d slices of %d instructions, slowdown %.1fx\n\n",
		path, prof.TotalInstr, prof.NumSlices, prof.SliceInterval,
		float64(host.Time())/float64(prof.TotalInstr))

	if o.csv {
		emitCSV(prof, names, o.metric, o.includeStack)
	} else {
		study.WriteCharts(os.Stdout, prof, names, study.RenderOptions{
			Metric: o.metric, Width: o.width, IncludeStack: o.includeStack,
		})
		fmt.Print(study.SummaryTable(prof, names, o.includeStack))
		if memTool != nil {
			study.WriteMemSection(os.Stdout, memTool.Snapshot(), names, o.width)
		}
		fmt.Println()
		fmt.Print(tool.Breakdown().String())
	}
	reportSpan.End()
	run.End()
	if ob != nil {
		host.PublishMetrics(ob.Metrics)
		tool.PublishMetrics(ob.Metrics)
		if memTool != nil {
			memTool.PublishMetrics(ob.Metrics)
		}
		if prof.TotalInstr > 0 {
			ob.Metrics.Gauge("tquad_run_slowdown").Set(float64(host.Time()) / float64(prof.TotalInstr))
		}
		if err := ob.WriteFiles(o.metricsOut, o.traceOut, o.journalOut); err != nil {
			return err
		}
	}
	return nil
}

// supervision bundles the sweep's resilience and telemetry settings.
type supervision struct {
	ctx       context.Context
	retries   int
	resume    string
	budget    uint64
	interpret  bool // run guests on the reference interpreter (-engine=step)
	replayJobs int  // decode workers for batched sweep replays

	// Live telemetry (all nil unless -serve): the observer whose registry
	// the server exposes, the tracker receiving lifecycle events, and the
	// chart accumulating completed-run bandwidth.
	obs    *obs.Observer
	events *live.Tracker
	chart  *live.ChartData
}

// runSweep executes one tQUAD run per interval×hierarchy combination
// through the parallel scheduler and prints each run's output in sweep
// order.  In replay mode (the scheduler default) the whole sweep shares
// one recorded guest execution, however many hierarchies it compares.
func runSweep(cfg wfs.Config, intervals []uint64, caches []memsim.Config, includeStack, ignoreLibs bool, jobs int, metric, kernels string, width int, sup supervision) error {
	s, err := study.NewObserved(cfg, sup.obs)
	if err != nil {
		return err
	}
	s.W.Interpret = sup.interpret
	sch := study.NewScheduler(s, jobs)
	defer sch.Close()
	sch.SetContext(sup.ctx)
	sch.SetRetries(sup.retries)
	sch.SetMaxInstr(sup.budget)
	sch.SetReplayJobs(sup.replayJobs)
	if sup.events != nil {
		sch.SetEvents(sup.events)
	}
	if sup.resume != "" {
		ck, err := study.OpenCheckpoint(sup.resume)
		if err != nil {
			return err
		}
		defer ck.Close()
		sch.SetCheckpoint(ck)
		if done := len(ck.Completed()); done > 0 {
			log.Printf("resuming: %d run(s) already completed in %s", done, sup.resume)
		}
	}
	resolved := make([]uint64, len(intervals))
	for i, iv := range intervals {
		if iv == 0 {
			if iv, err = sch.SliceForCount(64); err != nil {
				return err
			}
		}
		resolved[i] = iv
	}
	cacheKeys := []string{""}
	if len(caches) > 0 {
		cacheKeys = cacheKeys[:0]
		for _, c := range caches {
			cacheKeys = append(cacheKeys, c.Key())
		}
	}
	pend := make([]*study.Pending, 0, len(resolved)*len(cacheKeys))
	for _, iv := range resolved {
		for _, ck := range cacheKeys {
			pend = append(pend, sch.Submit(study.RunConfig{
				Kind:          study.RunTQUAD,
				SliceInterval: iv,
				IncludeStack:  includeStack,
				ExcludeLibs:   ignoreLibs,
				Cache:         ck,
			}))
		}
	}
	// Drain the sweep before printing: any failure means a non-zero exit
	// with no partial output.
	if errs := sch.Flush(); len(errs) > 0 {
		for _, e := range errs {
			log.Print(e)
		}
		return fmt.Errorf("%d of %d runs failed", len(errs), len(pend))
	}
	results := make([]*study.RunResult, 0, len(pend))
	for _, p := range pend {
		res, err := p.Wait()
		if err != nil {
			return err
		}
		sup.chart.Add(res.Key, study.EffectiveBandwidth(res.Temporal))
		results = append(results, res)
	}
	study.WriteSweepReport(os.Stdout, results, resolved, len(caches) > 1, study.RenderOptions{
		Metric: metric, Kernels: kernels, Width: width, IncludeStack: includeStack,
	})
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

// parseCaches parses the -cache flag: a semicolon-separated list of
// hierarchy descriptions (levels within one hierarchy are
// comma-separated, so the list separator must differ).  Hierarchies that
// canonicalise to the same geometry collapse to one run.  An empty flag
// leaves the simulator detached.
func parseCaches(s string) ([]memsim.Config, error) {
	if s == "" {
		return nil, nil
	}
	return cliutil.ParseList("-cache", s, ";", memsim.ParseConfig, memsim.Config.Key)
}

func pickConfig(name string) (wfs.Config, error) {
	switch name {
	case "small":
		return wfs.Small(), nil
	case "study":
		return wfs.Study(), nil
	}
	return wfs.Config{}, fmt.Errorf("unknown config %q (want small or study)", name)
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
