// Command wfsstudy reproduces the paper's entire evaluation section in
// one run: Tables I-IV, Figures 6-7 (as text charts), the slowdown study
// and the kernel-clustering outlook.  Its output is the source of
// EXPERIMENTS.md.
//
// Usage:
//
//	wfsstudy [-config small|study] [-cache SPEC[;SPEC...]] [-jobs N]
//	         [-timeout D] [-run-timeout D]
//	         [-max-icount N] [-retries N] [-resume DIR]
//	         [-metrics FILE] [-trace FILE] [-journal FILE]
//	         [-serve ADDR] [-stall-window D]
//
// -cache adds the memory-hierarchy study: each semicolon-separated
// hierarchy (e.g. l1=32k/8/64,l2=256k/8/64,llc=8m/16/64) is simulated
// over the Figure 6 run — all of them replayed off the sweep's single
// recorded guest execution — and compared in an off-chip bandwidth
// table, with an off-chip variant of the Figure 6 chart and a per-phase
// off-chip column companion to Table IV for the first hierarchy.
//
// Every experiment in the sweep is submitted to the parallel scheduler
// up front and executes concurrently, bounded by -jobs (default
// GOMAXPROCS); configurations shared between tables and figures execute
// the guest once.  Rendering happens only after the whole sweep has
// drained — if any experiment fails, each failure is reported and the
// command exits non-zero without printing partial tables.  Output is
// byte-identical for every -jobs value.
//
// The sweep is supervised: SIGINT/SIGTERM (and the -timeout deadline)
// cancel it cleanly — in-flight guests stop at their next basic block,
// temp traces are removed, and the checkpoint journal (if -resume is
// set) is flushed so a rerun continues where this one stopped.
// -run-timeout bounds one experiment's wall-clock time, -max-icount its
// guest instruction budget, and -retries re-runs transiently failed
// attempts with deterministic backoff.  -resume DIR journals completed
// experiments and the recorded guest trace into DIR; rerunning with the
// same DIR re-executes zero completed guest work.
//
// -metrics writes a Prometheus text-format snapshot of every run's
// counters, -trace a chrome://tracing JSON timeline of the pipeline
// stages, and -journal a JSONL event journal.  Counters accumulate over
// the whole study (process-lifetime totals across all runs).
//
// -serve starts an embedded telemetry server for the duration of the
// sweep: GET / is a live progress page (per-experiment progress bars,
// rates, ETAs and a bandwidth chart of completed runs), /metrics the
// live Prometheus registry, /events a Server-Sent Events stream of
// experiment lifecycle events (?format=jsonl for plain JSONL), and
// /debug/pprof/ the Go profiler.  -stall-window flags experiments that
// stop heartbeating.  With -serve unset none of this machinery exists
// and output is byte-identical to previous releases.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tquad/internal/cliutil"
	"tquad/internal/cluster"
	"tquad/internal/memsim"
	"tquad/internal/obs"
	"tquad/internal/obs/live"
	"tquad/internal/study"
	"tquad/internal/wfs"
)

// options collects the sweep's supervision and export settings.
type options struct {
	caches     []memsim.Config
	jobs       int
	timeout    time.Duration
	runTimeout time.Duration
	maxICount  uint64
	retries    int
	resume     string
	metricsOut string
	traceOut   string
	journalOut string
	serveAddr  string
	stallWin   time.Duration
	engine     string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("wfsstudy: ")
	var opt options
	config := flag.String("config", "study", "workload configuration: small or study")
	cache := flag.String("cache", "", "simulate cache hierarchies over the Figure 6 run, e.g. l1=32k/8/64,l2=256k/8/64; semicolon-separated list sweeps geometries")
	flag.IntVar(&opt.jobs, "jobs", 0, "maximum concurrently executing experiments (0 = GOMAXPROCS)")
	flag.DurationVar(&opt.timeout, "timeout", 0, "whole-sweep deadline (0 = none)")
	flag.DurationVar(&opt.runTimeout, "run-timeout", 0, "per-experiment wall-clock bound (0 = none)")
	flag.Uint64Var(&opt.maxICount, "max-icount", 0, "per-experiment guest instruction budget (0 = default)")
	flag.IntVar(&opt.retries, "retries", 0, "retries per experiment after transient failures")
	flag.StringVar(&opt.resume, "resume", "", "checkpoint journal directory: journal completed experiments and resume from them on rerun")
	flag.StringVar(&opt.metricsOut, "metrics", "", "write a Prometheus text-format metrics snapshot to this file")
	flag.StringVar(&opt.traceOut, "trace", "", "write a chrome://tracing JSON trace of the pipeline stages to this file")
	flag.StringVar(&opt.journalOut, "journal", "", "write a JSONL event journal (spans + metrics) to this file")
	flag.StringVar(&opt.engine, "engine", "block", "execution engine: block (pre-decoded basic blocks) or step (reference interpreter)")
	flag.StringVar(&opt.serveAddr, "serve", "", "serve live telemetry (progress page, /metrics, /events, pprof) on this address, e.g. :8080")
	flag.DurationVar(&opt.stallWin, "stall-window", 10*time.Second, "with -serve: flag an experiment as stalled after this long without a heartbeat (0 = never)")
	flag.Parse()

	if opt.jobs < 0 {
		log.Fatalf("bad -jobs %d: must be >= 0", opt.jobs)
	}
	if opt.retries < 0 {
		log.Fatalf("bad -retries %d: must be >= 0", opt.retries)
	}
	if opt.engine != "block" && opt.engine != "step" {
		log.Fatalf("bad -engine %q: must be block or step", opt.engine)
	}
	if *cache != "" {
		var err error
		opt.caches, err = cliutil.ParseList("-cache", *cache, ";", memsim.ParseConfig, memsim.Config.Key)
		if err != nil {
			log.Fatal(err)
		}
	}
	// Probe every output path before hours of sweep work can be wasted
	// on a typo'd export flag.
	if err := cliutil.EnsureWritableAll(
		"-metrics", opt.metricsOut, "-trace", opt.traceOut, "-journal", opt.journalOut,
	); err != nil {
		log.Fatal(err)
	}
	// SIGINT/SIGTERM cancel the sweep context; the deferred scheduler
	// and checkpoint shutdown inside run then clean temp traces and
	// flush the journal before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *config, opt); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, config string, opt options) error {
	cfg, err := wfs.ConfigByName(config)
	if err != nil {
		return err
	}
	if opt.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.timeout)
		defer cancel()
	}

	// The observer stays nil (zero-cost) unless an export was requested
	// or the telemetry server needs a live registry to expose.
	var o *obs.Observer
	if opt.metricsOut != "" || opt.traceOut != "" || opt.journalOut != "" || opt.serveAddr != "" {
		o = obs.NewObserver()
	}

	// Under -serve every scheduler lifecycle event flows through the run
	// tracker into the SSE bus, and the progress page charts completed
	// runs' effective bandwidth as the sweep drains.
	var (
		tracker *live.Tracker
		chart   *live.ChartData
	)
	if opt.serveAddr != "" {
		chart = live.NewChartData("effective bandwidth of completed runs", "B/instr")
		tracker = live.NewTracker(live.TrackerOptions{Registry: o.Registry(), StallWindow: opt.stallWin})
		defer tracker.Close()
		srv, err := live.Serve(opt.serveAddr, live.Options{
			Registry: o.Registry(),
			Tracker:  tracker,
			Chart:    chart.SVG,
			Title:    "wfsstudy " + config,
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		// Stdout, not the log: scripted users bind :0 and read the
		// actually-assigned address from here.
		fmt.Printf("live telemetry at %s\n", srv.URL())
	}

	s, err := study.NewObserved(cfg, o)
	if err != nil {
		return err
	}
	s.W.Interpret = opt.engine == "step"
	sch := study.NewScheduler(s, opt.jobs)
	defer sch.Close()
	sch.SetContext(ctx)
	sch.SetRetries(opt.retries)
	sch.SetRunTimeout(opt.runTimeout)
	sch.SetMaxInstr(opt.maxICount)
	if tracker != nil {
		sch.SetEvents(tracker)
	}
	if opt.resume != "" {
		ck, err := study.OpenCheckpoint(opt.resume)
		if err != nil {
			return err
		}
		defer ck.Close()
		sch.SetCheckpoint(ck)
		if done := len(ck.Completed()); done > 0 {
			log.Printf("resuming: %d experiment(s) already completed in %s", done, opt.resume)
		}
	}

	// Slice sizing needs the native instruction count, so that run goes
	// first; everything after is submitted up front and runs concurrently.
	native, err := sch.NativeICount()
	if err != nil {
		return err
	}
	iv64, err := sch.SliceForCount(64)
	if err != nil {
		return err
	}
	iv256, err := sch.SliceForCount(256)
	if err != nil {
		return err
	}

	pFlat := sch.Submit(study.RunConfig{Kind: study.RunFlat})
	pQuadEx := sch.Submit(study.RunConfig{Kind: study.RunQUAD, IncludeStack: false})
	pQuadIn := sch.Submit(study.RunConfig{Kind: study.RunQUAD, IncludeStack: true})
	pInstr := sch.Submit(study.RunConfig{Kind: study.RunInstrFlat})
	pFig6 := sch.Submit(study.RunConfig{Kind: study.RunTQUAD, SliceInterval: iv64, IncludeStack: true})
	pFig7 := sch.Submit(study.RunConfig{Kind: study.RunTQUAD, SliceInterval: iv256, IncludeStack: true})
	pPhases := sch.Submit(study.RunConfig{Kind: study.RunTQUAD, SliceInterval: 5000, IncludeStack: true})

	// The memory-hierarchy study: every requested geometry simulated over
	// the Figure 6 run, plus the first geometry at the phase interval for
	// the Table IV off-chip column.  In replay mode these all feed off the
	// sweep's one recorded guest execution.
	pCaches := make([]*study.Pending, len(opt.caches))
	for i, mc := range opt.caches {
		pCaches[i] = sch.Submit(study.RunConfig{
			Kind: study.RunTQUAD, SliceInterval: iv64, IncludeStack: true, Cache: mc.Key(),
		})
	}
	var pPhaseCache *study.Pending
	if len(opt.caches) > 0 {
		pPhaseCache = sch.Submit(study.RunConfig{
			Kind: study.RunTQUAD, SliceInterval: 5000, IncludeStack: true, Cache: opt.caches[0].Key(),
		})
	}

	// The slowdown grid shares the scheduler, so any of its
	// configurations that coincide with a figure's reuse that run.
	rows, rowsErr := sch.Slowdown([]uint64{native / 2000, native / 64, native / 16})

	// Drain the whole sweep before rendering anything: a failed
	// experiment means a non-zero exit with no partial tables.
	if errs := sch.Flush(); len(errs) > 0 {
		for _, e := range errs {
			log.Print(e)
		}
		return fmt.Errorf("%d experiment(s) failed; no tables rendered", len(errs))
	}
	if rowsErr != nil {
		return rowsErr
	}

	// The sweep is complete; every Wait below returns instantly.
	flatRes, err := pFlat.Wait()
	if err != nil {
		return err
	}
	quadExRes, err := pQuadEx.Wait()
	if err != nil {
		return err
	}
	quadInRes, err := pQuadIn.Wait()
	if err != nil {
		return err
	}
	instrRes, err := pInstr.Wait()
	if err != nil {
		return err
	}
	fig6Res, err := pFig6.Wait()
	if err != nil {
		return err
	}
	fig7Res, err := pFig7.Wait()
	if err != nil {
		return err
	}
	phasesRes, err := pPhases.Wait()
	if err != nil {
		return err
	}
	// The temporal runs feed the live bandwidth chart (no-ops when
	// -serve is unset and chart is nil).
	for _, res := range []*study.RunResult{fig6Res, fig7Res, phasesRes} {
		chart.Add(res.Key, study.EffectiveBandwidth(res.Temporal))
	}
	memProfs := make([]*memsim.Profile, len(pCaches))
	for i, p := range pCaches {
		res, err := p.Wait()
		if err != nil {
			return err
		}
		memProfs[i] = res.Mem
		chart.Add(res.Key, study.EffectiveBandwidth(res.Temporal))
	}
	var phaseMem *memsim.Profile
	if pPhaseCache != nil {
		res, err := pPhaseCache.Wait()
		if err != nil {
			return err
		}
		phaseMem = res.Mem
	}

	fmt.Printf("## Case study: hArtes-wfs-like workload (%s configuration)\n\n", config)
	fmt.Printf("1 primary source, %d secondary sources (speakers), %d frames of %d samples, %d-point FFT.\n",
		cfg.Speakers, cfg.Frames, cfg.FrameSize, cfg.FFTSize)
	fmt.Printf("Native execution: %d guest instructions.\n\n", native)

	fmt.Println("### Table I — flat profile (gprof analogue)")
	fmt.Println()
	fmt.Println(study.RenderTableI(flatRes.Flat))

	fmt.Println("### Table II — QUAD producer/consumer summary")
	fmt.Println()
	fmt.Println(study.RenderTableII(quadExRes.Quad, quadInRes.Quad))

	fmt.Println("### Table III — flat profile of the QUAD-instrumented run")
	fmt.Println()
	fmt.Println(study.RenderTableIII(flatRes.Flat, instrRes.Flat))

	fmt.Printf("### Figure 6 — reads, stack included, %d slices (slowdown %.1fx)\n\n",
		fig6Res.Temporal.NumSlices, float64(fig6Res.Time)/float64(fig6Res.Temporal.TotalInstr))
	fmt.Println("```")
	fmt.Print(study.RenderFigure("bytes per slice", fig6Res.Temporal, wfs.TopTenKernels(), true, true, 64))
	fmt.Println("```")
	fmt.Println()

	fmt.Printf("### Figure 7 — writes, stack excluded, %d slices\n\n", fig7Res.Temporal.NumSlices)
	fmt.Println("```")
	fmt.Print(study.RenderFigure("bytes per slice", fig7Res.Temporal, wfs.LastTenKernels(), false, false, 128))
	fmt.Println("```")
	fmt.Println()

	phases := s.PhasesFromProfile(phasesRes.Temporal)
	fmt.Printf("### Table IV — %d phases over %d slices of 5000 instructions\n\n",
		len(phases), phasesRes.Temporal.NumSlices)
	fmt.Println("```")
	fmt.Print(study.RenderTableIV(phases, phasesRes.Temporal.NumSlices))
	fmt.Println("```")

	if len(memProfs) > 0 {
		fmt.Println("### Memory hierarchy — effective off-chip bandwidth (simulated)")
		fmt.Println()
		fmt.Println(study.RenderCacheSweep(memProfs))
		fmt.Printf("#### Off-chip bytes per slice, %s\n\n", memProfs[0].Config.Key())
		fmt.Println("```")
		fmt.Print(study.RenderMemFigure("off-chip bytes per slice", memProfs[0], wfs.TopTenKernels(), 64))
		fmt.Println("```")
		fmt.Println()
		fmt.Println("#### Table IV companion — per-phase off-chip traffic")
		fmt.Println()
		fmt.Println("```")
		fmt.Print(study.RenderPhaseOffChip(phases, phaseMem))
		fmt.Println("```")
	}

	fmt.Println("### Section V.A — instrumentation slowdown (simulated)")
	fmt.Println()
	fmt.Println(study.RenderSlowdown(rows))

	// Task clustering (the paper's stated consumer of these results).
	res := cluster.Build(phasesRes.Temporal, quadInRes.Quad, cluster.Options{TargetClusters: 5, IncludeStack: true})
	fmt.Println("### Outlook — kernel clustering for task partitioning")
	fmt.Println()
	for i, c := range res.Clusters {
		fmt.Printf("cluster %d (intra %d bytes): %v\n", i+1, c.IntraBytes, c.Kernels)
	}
	fmt.Printf("inter-cluster communication: %d bytes\n", res.InterBytes)

	if o != nil {
		if err := o.WriteFiles(opt.metricsOut, opt.traceOut, opt.journalOut); err != nil {
			return err
		}
		fmt.Println()
		fmt.Println("### Observability — pipeline stages and aggregate overhead")
		fmt.Println()
		fmt.Print(study.RenderObsSummary(o))
	}
	return nil
}
