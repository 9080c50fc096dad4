package main

// tquad study reproduces the paper's entire evaluation section in one
// run: Tables I-IV, Figures 6-7 (as text charts), the slowdown study and
// the kernel-clustering outlook.  Its output is the source of
// EXPERIMENTS.md.
//
// Usage:
//
//	tquad study [-config small|study] [-cache SPEC[;SPEC...]] [-jobs N]
//	            [-timeout D] [-run-timeout D]
//	            [-max-icount N] [-retries N] [-resume DIR] [-engine E]
//	            [-metrics FILE] [-trace FILE] [-journal FILE]
//	            [-serve ADDR] [-stall-window D]
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
// -serve starts the telemetry server for the duration of the sweep:
// the progress page (per-experiment progress bars, rates, ETAs and a
// bandwidth chart of completed runs), /metrics, /events and
// /debug/pprof/, exactly as for the profiler.  With -serve unset none
// of this machinery exists.

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"tquad/internal/cluster"
	"tquad/internal/memsim"
	"tquad/internal/study"
	"tquad/internal/wfs"
)

func studyMain(args []string) {
	fs := command("tquad study")
	var rf runFlags
	rf.register(fs)
	config := fs.String("config", "study", "workload configuration: small or study")
	cache := fs.String("cache", "", "simulate cache hierarchies over the Figure 6 run, e.g. l1=32k/8/64,l2=256k/8/64; semicolon-separated list sweeps geometries")
	runTimeout := fs.Duration("run-timeout", 0, "per-experiment wall-clock bound (0 = none)")
	parse(fs, args)

	caches, err := parseCaches(*cache)
	if err != nil {
		log.Fatal(err)
	}
	if err := rf.check(); err != nil {
		log.Fatal(err)
	}
	ctx, cancel := signalContext(rf.timeout)
	defer cancel()
	if err := runStudy(ctx, *config, caches, *runTimeout, &rf); err != nil {
		log.Fatal(err)
	}
}

// runStudy runs and renders the whole evaluation.  Returning (rather
// than exiting) on failure lets the deferred scheduler and checkpoint
// shutdown clean temp traces and flush the journal first.
func runStudy(ctx context.Context, config string, caches []string, runTimeout time.Duration, rf *runFlags) error {
	cfg := lookupConfig(config)
	o := rf.observer()
	tel := rf.serve(o, "tquad study "+config)
	defer tel.close()
	sch, s, closeSch, err := rf.supervised(ctx, cfg, o, tel, "experiment")
	if err != nil {
		return err
	}
	defer closeSch()
	sch.SetRunTimeout(runTimeout)

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

	pend := []*study.Pending{
		sch.Submit(study.RunConfig{Kind: study.RunFlat}),
		sch.Submit(study.RunConfig{Kind: study.RunQUAD, IncludeStack: false}),
		sch.Submit(study.RunConfig{Kind: study.RunQUAD, IncludeStack: true}),
		sch.Submit(study.RunConfig{Kind: study.RunInstrFlat}),
		sch.Submit(study.RunConfig{Kind: study.RunTQUAD, SliceInterval: iv64, IncludeStack: true}),
		sch.Submit(study.RunConfig{Kind: study.RunTQUAD, SliceInterval: iv256, IncludeStack: true}),
		sch.Submit(study.RunConfig{Kind: study.RunTQUAD, SliceInterval: 5000, IncludeStack: true}),
	}
	// The memory-hierarchy study: every requested geometry simulated over
	// the Figure 6 run, then the first geometry at the phase interval for
	// the Table IV off-chip column.  In replay mode these all feed off the
	// sweep's one recorded guest execution.
	for _, c := range caches {
		pend = append(pend, sch.Submit(study.RunConfig{
			Kind: study.RunTQUAD, SliceInterval: iv64, IncludeStack: true, Cache: c,
		}))
	}
	if len(caches) > 0 {
		pend = append(pend, sch.Submit(study.RunConfig{
			Kind: study.RunTQUAD, SliceInterval: 5000, IncludeStack: true, Cache: caches[0],
		}))
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

	// The sweep is complete; WaitAll returns instantly.
	res, err := study.WaitAll(pend...)
	if err != nil {
		return err
	}
	flatRes, quadExRes, quadInRes, instrRes, fig6Res, fig7Res, phasesRes := res[0], res[1], res[2], res[3], res[4], res[5], res[6]
	// The temporal runs feed the live bandwidth chart (no-ops when
	// -serve is unset).
	for _, r := range res[4 : 7+len(caches)] {
		tel.chart.Add(r.Key, study.EffectiveBandwidth(r.Temporal))
	}
	var memProfs []*memsim.Profile
	for _, r := range res[7 : 7+len(caches)] {
		memProfs = append(memProfs, r.Mem)
	}

	fmt.Printf("## Case study: hArtes-wfs-like workload (%s configuration)\n\n", config)
	fmt.Printf("1 primary source, %d secondary sources (speakers), %d frames of %d samples, %d-point FFT.\n",
		cfg.Speakers, cfg.Frames, cfg.FrameSize, cfg.FFTSize)
	fmt.Printf("Native execution: %d guest instructions.\n\n", native)

	study.WriteTablesIToIII(os.Stdout, flatRes.Flat, instrRes.Flat, quadExRes.Quad, quadInRes.Quad)

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
	study.WriteTableIV(os.Stdout, phases, phasesRes.Temporal.NumSlices)

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
		fmt.Print(study.RenderPhaseOffChip(phases, res[len(res)-1].Mem))
		fmt.Println("```")
	}

	fmt.Println("### Section V.A — instrumentation slowdown (simulated)")
	fmt.Println()
	fmt.Println(study.RenderSlowdown(rows))

	// Task clustering (the paper's stated consumer of these results).
	clusters := cluster.Build(phasesRes.Temporal, quadInRes.Quad, cluster.Options{TargetClusters: 5, IncludeStack: true})
	fmt.Println("### Outlook — kernel clustering for task partitioning")
	fmt.Println()
	for i, c := range clusters.Clusters {
		fmt.Printf("cluster %d (intra %d bytes): %v\n", i+1, c.IntraBytes, c.Kernels)
	}
	fmt.Printf("inter-cluster communication: %d bytes\n", clusters.InterBytes)

	if o != nil {
		if err := o.WriteFiles(rf.metricsOut, rf.traceOut, rf.journalOut); err != nil {
			return err
		}
		fmt.Println()
		fmt.Println("### Observability — pipeline stages and aggregate overhead")
		fmt.Println()
		fmt.Print(study.RenderObsSummary(o))
	}
	return nil
}
