// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section V), plus the slowdown study and the ablations
// called out in DESIGN.md.  Each benchmark runs the full case-study
// configuration (wfs.Study: one primary source, thirty-two speakers) and
// reports the headline quantities as custom metrics; run with -v to see
// the rendered tables, and see `tquad study` + EXPERIMENTS.md for the
// complete output.
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"tquad/internal/core"
	"tquad/internal/etrace"
	"tquad/internal/imgproc"
	"tquad/internal/obs"
	"tquad/internal/obs/live"
	"tquad/internal/pin"
	"tquad/internal/study"
	"tquad/internal/wfs"
)

var (
	benchOnce sync.Once
	benchS    *study.Study
)

// benchStudy lazily builds the shared Study-configuration workload.
func benchStudy(b *testing.B) *study.Study {
	b.Helper()
	benchOnce.Do(func() {
		s, err := study.New(wfs.Study())
		if err != nil {
			b.Fatalf("study: %v", err)
		}
		benchS = s
	})
	return benchS
}

// liveRuns executes the configurations live on a fresh one-worker
// scheduler — one guest execution each, in order, as the single-table
// CLIs run them — and returns their results.
func liveRuns(b *testing.B, cfgs ...study.RunConfig) []*study.RunResult {
	b.Helper()
	sch := study.NewScheduler(benchStudy(b), 1)
	defer sch.Close()
	sch.SetReplay(false)
	out := make([]*study.RunResult, len(cfgs))
	for i, cfg := range cfgs {
		res, err := sch.Run(cfg)
		if err != nil {
			b.Fatalf("%s: %v", cfg.Key(), err)
		}
		out[i] = res
	}
	return out
}

// BenchmarkTableI_FlatProfile regenerates the gprof flat profile of the
// WFS application (paper Table I).
func BenchmarkTableI_FlatProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := liveRuns(b, study.RunConfig{Kind: study.RunFlat})[0].Flat
		if i == 0 {
			b.Logf("Table I\n%s", study.RenderTableI(p))
			ws, _ := p.Row("wav_store")
			ff, _ := p.Row("fft1d")
			b.ReportMetric(ws.Pct, "wav_store_%time")
			b.ReportMetric(ff.Pct, "fft1d_%time")
		}
	}
}

// BenchmarkTableII_QUAD regenerates the producer/consumer summary (paper
// Table II), both stack modes.
func BenchmarkTableII_QUAD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := liveRuns(b, study.RunConfig{Kind: study.RunQUAD, IncludeStack: false},
			study.RunConfig{Kind: study.RunQUAD, IncludeStack: true})
		excl, incl := res[0].Quad, res[1].Quad
		if i == 0 {
			b.Logf("Table II\n%s", study.RenderTableII(excl, incl))
			sf, _ := excl.Kernel("AudioIo_setFrames")
			b.ReportMetric(float64(sf.Out), "setFrames_OUT_bytes")
			b.ReportMetric(float64(sf.OutUnMA), "setFrames_OUT_UnMA")
		}
	}
}

// BenchmarkTableIII_InstrumentedProfile regenerates the flat profile of
// the QUAD-instrumented binary (paper Table III).
func BenchmarkTableIII_InstrumentedProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := liveRuns(b, study.RunConfig{Kind: study.RunFlat}, study.RunConfig{Kind: study.RunInstrFlat})
		base, instr := res[0].Flat, res[1].Flat
		if i == 0 {
			b.Logf("Table III\n%s", study.RenderTableIII(base, instr))
			sf, _ := instr.Row("AudioIo_setFrames")
			b.ReportMetric(sf.Pct, "setFrames_instr_%time")
		}
	}
}

// BenchmarkFigure6_ReadBandwidth regenerates the temporal read-bandwidth
// graph, stack included, ~64 slices (paper Figure 6).
func BenchmarkFigure6_ReadBandwidth(b *testing.B) {
	native, err := benchStudy(b).NativeICount()
	if err != nil {
		b.Fatalf("native: %v", err)
	}
	cfg := study.RunConfig{Kind: study.RunTQUAD, SliceInterval: native / 64, IncludeStack: true}
	for i := 0; i < b.N; i++ {
		prof := liveRuns(b, cfg)[0].Temporal
		if i == 0 {
			b.Logf("Figure 6\n%s", study.RenderFigure(
				"memory bandwidth usage, reads, stack included (top ten kernels)",
				prof, wfs.TopTenKernels(), true, true, 64))
			ws, _ := prof.Kernel("wav_store")
			b.ReportMetric(float64(prof.NumSlices), "slices")
			b.ReportMetric(float64(ws.FirstSlice)/float64(prof.NumSlices), "wav_store_start_frac")
		}
	}
}

// BenchmarkFigure7_WriteBandwidth regenerates the temporal
// write-bandwidth graph, stack excluded, ~256 slices (paper Figure 7).
func BenchmarkFigure7_WriteBandwidth(b *testing.B) {
	native, err := benchStudy(b).NativeICount()
	if err != nil {
		b.Fatalf("native: %v", err)
	}
	cfg := study.RunConfig{Kind: study.RunTQUAD, SliceInterval: native / 256, IncludeStack: true}
	for i := 0; i < b.N; i++ {
		prof := liveRuns(b, cfg)[0].Temporal
		if i == 0 {
			// The paper cuts the second half off (only wav_store is
			// active); the renderer shows the full run.
			b.Logf("Figure 7\n%s", study.RenderFigure(
				"memory bandwidth usage, writes, stack excluded (last ten kernels)",
				prof, wfs.LastTenKernels(), false, false, 128))
			b.ReportMetric(float64(prof.NumSlices), "slices")
		}
	}
}

// BenchmarkTableIV_Phases regenerates the phase table (paper Table IV):
// fine slices, phase detection, per-kernel bandwidth statistics.
func BenchmarkTableIV_Phases(b *testing.B) {
	s := benchStudy(b)
	for i := 0; i < b.N; i++ {
		prof := liveRuns(b, study.RunConfig{Kind: study.RunTQUAD, SliceInterval: 5000, IncludeStack: true})[0].Temporal
		phases := s.PhasesFromProfile(prof)
		if i == 0 {
			b.Logf("Table IV\n%s", study.RenderTableIV(phases, prof.NumSlices))
			b.ReportMetric(float64(len(phases)), "phases")
			if len(phases) == 5 {
				b.ReportMetric(float64(phases[4].Span())/float64(prof.NumSlices), "wave_save_span_frac")
			}
		}
	}
}

// BenchmarkSlowdown_BySlice sweeps the tQUAD configuration grid and
// reports the simulated slowdown spread (paper Section V.A: 37.2x-68.95x
// depending on the time slice and the stack option).
func BenchmarkSlowdown_BySlice(b *testing.B) {
	s := benchStudy(b)
	native, err := s.NativeICount()
	if err != nil {
		b.Fatalf("native: %v", err)
	}
	ivs := []uint64{native / 2000, native / 64, native / 16}
	for i := 0; i < b.N; i++ {
		sch := study.NewScheduler(s, 1)
		sch.SetReplay(false)
		rows, err := sch.Slowdown(ivs)
		sch.Close()
		if err != nil {
			b.Fatalf("slowdown: %v", err)
		}
		if i == 0 {
			b.Logf("Slowdown\n%s", study.RenderSlowdown(rows))
			min, max := rows[0].Slowdown, rows[0].Slowdown
			for _, r := range rows {
				if r.Tool != "tQUAD" {
					continue
				}
				if r.Slowdown < min {
					min = r.Slowdown
				}
				if r.Slowdown > max {
					max = r.Slowdown
				}
			}
			b.ReportMetric(min, "slowdown_min_x")
			b.ReportMetric(max, "slowdown_max_x")
		}
	}
}

// BenchmarkStudyParallel measures the parallel experiment scheduler on
// the Section V.A sweep at increasing parallelism.  Every sub-benchmark
// executes the identical configuration grid on a fresh scheduler (no
// memoisation carry-over between iterations); on a multi-core runner the
// wall-clock per sweep drops as jobs rises, and the rendered rows are
// byte-identical at every level (asserted by the tests in
// internal/study).
func BenchmarkStudyParallel(b *testing.B) {
	s := benchStudy(b)
	native, err := s.NativeICount()
	if err != nil {
		b.Fatalf("native: %v", err)
	}
	ivs := []uint64{native / 64, native / 16}
	for _, jobs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sch := study.NewScheduler(s, jobs)
				rows, err := sch.Slowdown(ivs)
				sch.Close()
				if err != nil {
					b.Fatalf("sweep: %v", err)
				}
				if i == 0 {
					b.ReportMetric(float64(len(rows)), "rows")
				}
			}
		})
	}
}

// BenchmarkNativeExecution measures raw interpreter throughput on the
// case-study workload (the slowdown baseline).
func BenchmarkNativeExecution(b *testing.B) {
	s := benchStudy(b)
	var instr uint64
	for i := 0; i < b.N; i++ {
		m, _ := s.W.NewMachine()
		if err := m.Run(wfs.MaxInstr); err != nil {
			b.Fatalf("run: %v", err)
		}
		instr = m.ICount
	}
	b.ReportMetric(float64(instr), "guest_instructions")
}

// BenchmarkRunObsOff / BenchmarkRunObsOn measure the observability
// layer's cost on a full tQUAD run of the wfs study workload.  ObsOff is
// the disabled path (nil observer: nil-receiver fast path everywhere) and
// must show no measurable regression against the seed; ObsOn carries a
// live registry and tracer and reports the exported metric count.
func BenchmarkRunObsOff(b *testing.B) {
	benchObsRun(b, nil)
}

func BenchmarkRunObsOn(b *testing.B) {
	benchObsRun(b, obs.NewObserver())
}

func benchObsRun(b *testing.B, o *obs.Observer) {
	s, err := study.NewObserved(wfs.Study(), o)
	if err != nil {
		b.Fatalf("study: %v", err)
	}
	native, err := s.NativeICount()
	if err != nil {
		b.Fatalf("native: %v", err)
	}
	cfg := study.RunConfig{Kind: study.RunTQUAD, SliceInterval: native / 64, IncludeStack: true}
	// Workload build and native calibration are setup, not the
	// instrumented run under measurement — exclude them so 1x logs
	// compare run cost.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sch := study.NewScheduler(s, 1)
		sch.SetReplay(false)
		res, err := sch.Run(cfg)
		sch.Flush()
		sch.Close()
		if err != nil {
			b.Fatalf("tQUAD: %v", err)
		}
		prof := res.Temporal
		if i == 0 {
			b.ReportMetric(float64(prof.TotalInstr), "guest_instructions")
			b.ReportMetric(float64(len(o.Registry().Snapshot())), "metrics_exported")
		}
	}
}

// BenchmarkRunServeOff / BenchmarkRunServeOn measure the live telemetry
// layer's cost on a scheduler-driven live (non-replay) tQUAD run.
// ServeOn carries the whole -serve stack — run tracker, event bus,
// stall detector, HTTP server with one subscribed event-stream consumer
// — while ServeOff is the shipped default (nil sink, watchdog never
// installed).  The heartbeat stride bounds event volume to a handful
// per run, so the pair must stay within a few percent of each other.
func BenchmarkRunServeOff(b *testing.B) { benchServeRun(b, false) }

func BenchmarkRunServeOn(b *testing.B) { benchServeRun(b, true) }

func benchServeRun(b *testing.B, serveOn bool) {
	s := benchStudy(b)
	// Both arms run under a cancellable context, exactly like the CLIs
	// (whose runs always carry SIGINT supervision): the comparison then
	// isolates the telemetry layer, not the supervised-loop entry that
	// signal handling already pays for.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := study.RunConfig{Kind: study.RunTQUAD, SliceInterval: 200_000, IncludeStack: true}
	for i := 0; i < b.N; i++ {
		// A fresh scheduler per iteration: memoisation would otherwise
		// serve every run after the first from cache.
		sch := study.NewScheduler(s, 1)
		sch.SetContext(ctx)
		sch.SetReplay(false) // execute live: the watchdog heartbeat path
		if serveOn {
			o := obs.NewObserver()
			tracker := live.NewTracker(live.TrackerOptions{
				Registry:    o.Registry(),
				StallWindow: time.Second,
			})
			progress, err := live.Progress(live.Options{Tracker: tracker})
			if err != nil {
				b.Fatalf("progress: %v", err)
			}
			srv, err := live.Serve("127.0.0.1:0", o.Registry(), progress)
			if err != nil {
				b.Fatalf("serve: %v", err)
			}
			sub := tracker.Bus().Subscribe()
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				for range sub.Events() {
				}
			}()
			sch.SetEvents(tracker)
			res, err := sch.Run(cfg)
			if err != nil {
				b.Fatalf("run: %v", err)
			}
			if i == 0 {
				b.ReportMetric(float64(res.ICount), "guest_instructions")
			}
			sch.Close()
			sub.Close()
			<-drained
			tracker.Close()
			srv.Close()
			continue
		}
		res, err := sch.Run(cfg)
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.ICount), "guest_instructions")
		}
		sch.Close()
	}
}

// BenchmarkImgprocPipeline measures the second case-study workload (the
// integer image pipeline) natively and under tQUAD.
func BenchmarkImgprocPipeline(b *testing.B) {
	w, err := imgproc.NewWorkload(imgproc.Small())
	if err != nil {
		b.Fatalf("workload: %v", err)
	}
	b.Run("native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, _ := w.NewMachine()
			if err := m.Run(500_000_000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tquad", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, _ := w.NewMachine()
			e := pin.NewEngine(m)
			core.Attach(e, core.Options{SliceInterval: 3000, IncludeStack: true})
			if err := m.Run(500_000_000); err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(m.Time())/float64(m.ICount), "slowdown_x")
			}
		}
	})
}

// --- ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblation_CodeCache compares the Pin-style code cache
// (decode+instrument once) against decoding on every step.
func BenchmarkAblation_CodeCache(b *testing.B) {
	w, err := wfs.NewWorkload(wfs.Small())
	if err != nil {
		b.Fatalf("workload: %v", err)
	}
	for _, cached := range []bool{true, false} {
		name := "cached"
		if !cached {
			name = "decode-per-step"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, _ := w.NewMachine()
				m.CacheEnabled = cached
				if err := m.Run(wfs.MaxInstr); err != nil {
					b.Fatalf("run: %v", err)
				}
			}
		})
	}
}

// BenchmarkAblation_PrefetchFastPath compares the paper's
// return-immediately-on-prefetch analysis path against tracing
// prefetches like ordinary reads.
func BenchmarkAblation_PrefetchFastPath(b *testing.B) {
	w, err := wfs.NewWorkload(wfs.Small())
	if err != nil {
		b.Fatalf("workload: %v", err)
	}
	for _, trace := range []bool{false, true} {
		name := "fast-path"
		if trace {
			name = "trace-prefetches"
		}
		b.Run(name, func(b *testing.B) {
			var overhead uint64
			for i := 0; i < b.N; i++ {
				m, _ := w.NewMachine()
				e := pin.NewEngine(m)
				core.Attach(e, core.Options{IncludeStack: true, TracePrefetches: trace})
				if err := m.Run(wfs.MaxInstr); err != nil {
					b.Fatalf("run: %v", err)
				}
				overhead = m.Overhead
			}
			b.ReportMetric(float64(overhead), "simulated_overhead")
		})
	}
}

// BenchmarkAblation_Granularity compares instruction-granular analysis
// calls against basic-block (TRACE) granularity for the same measurement
// (executed instruction counting): the block form fires an order of
// magnitude fewer analysis calls.
func BenchmarkAblation_Granularity(b *testing.B) {
	w, err := wfs.NewWorkload(wfs.Small())
	if err != nil {
		b.Fatalf("workload: %v", err)
	}
	b.Run("per-instruction", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, _ := w.NewMachine()
			e := pin.NewEngine(m)
			var count uint64
			e.INSAddInstrumentFunction(func(ins *pin.INS) {
				ins.InsertCall(func(ctx *pin.Context) { count++ })
			})
			if err := m.Run(wfs.MaxInstr); err != nil {
				b.Fatal(err)
			}
			if count != m.ICount {
				b.Fatalf("count %d != icount %d", count, m.ICount)
			}
		}
	})
	b.Run("per-basic-block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, _ := w.NewMachine()
			e := pin.NewEngine(m)
			var count uint64
			e.TRACEAddInstrumentFunction(func(tr *pin.TRACE) {
				n := uint64(tr.NumInstrs())
				tr.InsertCall(func(ctx *pin.Context) { count += n })
			})
			if err := m.Run(wfs.MaxInstr); err != nil {
				b.Fatal(err)
			}
			if count != m.ICount {
				b.Fatalf("count %d != icount %d", count, m.ICount)
			}
		}
	})
}

// BenchmarkSweepReplay is the record-once/replay-many headline: a
// five-configuration sweep through the scheduler costs exactly one guest
// execution — every analysis replays the recorded event trace.  The
// guest_execs metric is asserted, not just reported.
func BenchmarkSweepReplay(b *testing.B) {
	s := benchStudy(b)
	native, err := s.NativeICount()
	if err != nil {
		b.Fatalf("native: %v", err)
	}
	configs := []study.RunConfig{
		{Kind: study.RunFlat},
		{Kind: study.RunQUAD, IncludeStack: true},
		{Kind: study.RunTQUAD, SliceInterval: native / 64, IncludeStack: true},
		{Kind: study.RunTQUAD, SliceInterval: native / 16, IncludeStack: true},
		{Kind: study.RunTQUAD, SliceInterval: native / 16, IncludeStack: false},
	}
	var execs uint64
	for i := 0; i < b.N; i++ {
		sch := study.NewScheduler(s, 4)
		for _, cfg := range configs {
			sch.Submit(cfg)
		}
		if errs := sch.Flush(); len(errs) > 0 {
			b.Fatalf("sweep: %v", errs)
		}
		execs = sch.GuestExecutions()
		if execs != 1 {
			b.Fatalf("sweep of %d configs used %d guest executions, want 1", len(configs), execs)
		}
		sch.Close()
	}
	b.ReportMetric(float64(len(configs)), "configs")
	b.ReportMetric(float64(execs), "guest_execs")
}

// BenchmarkSweepCache measures the memory-hierarchy study: four cache
// geometries simulated off a single recorded guest execution.  Reports
// the off-chip traffic of the smallest and largest hierarchy (the spread
// the sweep exists to expose) and asserts the one-execution guarantee.
func BenchmarkSweepCache(b *testing.B) {
	s := benchStudy(b)
	native, err := s.NativeICount()
	if err != nil {
		b.Fatalf("native: %v", err)
	}
	caches := []string{
		"l1=8k/2/64",
		"l1=32k/8/64,l2=256k/8/64",
		"l1=32k/8/64,l2=256k/8/64,llc=2m/16/64",
		"l1=64k/8/64,l2=512k/8/64,llc=8m/16/64",
	}
	var first, last *study.RunResult
	for i := 0; i < b.N; i++ {
		sch := study.NewScheduler(s, 4)
		pend := make([]*study.Pending, len(caches))
		for j, c := range caches {
			pend[j] = sch.Submit(study.RunConfig{
				Kind: study.RunTQUAD, SliceInterval: native / 64,
				IncludeStack: true, Cache: c,
			})
		}
		if errs := sch.Flush(); len(errs) > 0 {
			b.Fatalf("sweep: %v", errs)
		}
		for j, p := range pend {
			res, err := p.Wait()
			if err != nil {
				b.Fatalf("cache %s: %v", caches[j], err)
			}
			if j == 0 {
				first = res
			}
			if j == len(caches)-1 {
				last = res
			}
		}
		if execs := sch.GuestExecutions(); execs != 1 {
			b.Fatalf("sweep of %d hierarchies used %d guest executions, want 1", len(caches), execs)
		}
		sch.Close()
	}
	b.ReportMetric(float64(len(caches)), "hierarchies")
	b.ReportMetric(float64(first.Mem.OffChipBytes()), "offchip_small_bytes")
	b.ReportMetric(float64(last.Mem.OffChipBytes()), "offchip_large_bytes")
}

// BenchmarkParallelReplay measures indexed trace decode with a worker
// pool against inline decode (jobs1) over the same in-memory recording
// of the full study workload, with a bare consumer attached (no analysis
// tools), so the comparison isolates the decode pipeline.  The speedup
// target from the indexed-replay work is >=2x at four workers on >=4
// cores: decode is ~75% of a bare replay (pprof), so four decode workers
// bound the pipeline at the serial apply stage.  Each sub-benchmark reports the
// host's core count — on a single-core runner the workers time-slice
// one CPU, so no speedup over jobs1 is expected there.
func BenchmarkParallelReplay(b *testing.B) {
	s := benchStudy(b)
	m, _ := s.W.NewMachine()
	e := pin.NewEngine(m)
	var buf bytes.Buffer
	rec, err := etrace.Record(e, &buf, etrace.RecordOptions{Workload: "study", Blocks: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Run(wfs.MaxInstr); err != nil {
		b.Fatal(err)
	}
	if err := rec.Finish(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()

	for _, jobs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("jobs%d", jobs), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
			for i := 0; i < b.N; i++ {
				pr, err := etrace.NewParallelReplayer(bytes.NewReader(data), int64(len(data)),
					etrace.ParallelOptions{Jobs: jobs})
				if err != nil {
					b.Fatal(err)
				}
				host := pr.NewConsumer()
				if err := pr.Replay(); err != nil {
					b.Fatal(err)
				}
				if host.ICount() != m.ICount {
					b.Fatalf("replayed %d instructions, recorded %d", host.ICount(), m.ICount)
				}
			}
		})
	}
}
