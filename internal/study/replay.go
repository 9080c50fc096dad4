// Record-once/replay-many execution for the scheduler: every profiling
// configuration observes the same dynamic event stream (analysis
// routines never perturb the guest), so a sweep needs one recorded guest
// execution per execution-equivalence group, replayed through every
// configuration's tools in one decode pass.  This file holds the
// recording and replay plumbing and the shared attach/collect helpers
// that keep the live and replayed paths running the exact same tool
// code.
package study

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"

	"tquad/internal/core"
	"tquad/internal/etrace"
	"tquad/internal/flatprof"
	"tquad/internal/memsim"
	"tquad/internal/obs"
	"tquad/internal/pin"
	"tquad/internal/quad"
	"tquad/internal/vm"
	"tquad/internal/wfs"
)

// ExecKey is the execution-equivalence key: submissions whose guest
// executions are indistinguishable share one recording.  Instrumentation
// is purely observational (analysis cost lands in the separate overhead
// counter and tools never write guest state), so every run kind —
// including the native baseline — replays the same event stream and the
// key is a constant.
func (c RunConfig) ExecKey() string { return "guest" }

// known reports whether k is a defined run kind.
func (k RunKind) known() bool {
	switch k {
	case RunNative, RunFlat, RunQUAD, RunInstrFlat, RunTQUAD:
		return true
	}
	return false
}

// recording is one in-flight or finished guest recording, shared by all
// configurations in its execution-equivalence group.
type recording struct {
	done      chan struct{}
	path      string // trace file; a temp file unless persisted
	persisted bool   // path lives in a checkpoint journal; Close keeps it
	icount    uint64 // recorded guest instruction total (replay budget)
	reg       *obs.Registry
	spans     []obs.SpanRecord
	err       error

	// Corruption recovery state, guarded by the scheduler's mu.  A
	// recording whose trace later fails integrity verification is retired
	// and replaced by a fresh guest execution (Scheduler.rerecord);
	// generation counts how many predecessors this recording replaced,
	// bounding the re-execution budget.
	generation  int
	replacement *recording

	// Replay-pass state, guarded by the scheduler's mu: the members
	// queued for the recording's next pass, and whether a pass
	// coordinator is live to run it (see Scheduler.batchReplays).
	batch    []*member
	batching bool
}

// recordingLocked returns the group's recording, starting it on first
// use.  Callers hold sc.mu.  The goroutine takes a worker slot itself
// (inside recordOnce); configurations wait on rec.done before acquiring
// theirs, so the record-then-replay chain cannot deadlock even at
// jobs=1.
func (sc *Scheduler) recordingLocked(key string) *recording {
	if rec, ok := sc.recs[key]; ok {
		return rec
	}
	rec := &recording{done: make(chan struct{})}
	sc.recs[key] = rec
	go sc.record(sc.policyLocked(), key, rec)
	return rec
}

// record drives one recording under the supervision policy: checkpoint
// fast path, then attempts with panic recovery and transient retry on a
// schedule seeded from "record/<key>", persisting the finished trace
// into the checkpoint journal when one is attached.
func (sc *Scheduler) record(pol policy, key string, rec *recording) {
	defer close(rec.done)
	evKey := "record/" + key
	pol.emit(obs.Event{Type: obs.EventQueued, Key: evKey})
	ctx := pol.ctx
	if pol.ckpt != nil {
		if path, ok := pol.ckpt.trace(key); ok {
			// A previous sweep already recorded this group: replay from the
			// persisted trace, executing the guest zero times.
			rec.path, rec.persisted = path, true
			rec.icount = statTraceICount(pol, path)
			sc.sup.CheckpointHits.Inc()
			pol.emit(obs.Event{Type: obs.EventCheckpointed, Key: evKey, ICount: rec.icount})
			pol.emit(obs.Event{Type: obs.EventSucceeded, Key: evKey, ICount: rec.icount})
			return
		}
	}
	sched := backoffSchedule(evKey, pol.retries, pol.base, pol.cap)
	for attempt := 0; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			sc.sup.Cancels.Inc()
			rec.err = cerr
			pol.emit(obs.Event{Type: obs.EventFailed, Key: evKey, Err: cerr.Error()})
			return
		}
		rec.err = sc.recordOnce(pol, key, attempt, rec)
		if rec.err == nil {
			if pol.ckpt != nil {
				if path, err := pol.ckpt.saveTrace(key, rec.path); err == nil {
					rec.path, rec.persisted = path, true
					sc.sup.CheckpointSaves.Inc()
					pol.emit(obs.Event{Type: obs.EventCheckpointed, Key: evKey, ICount: rec.icount})
				}
			}
			pol.emit(obs.Event{Type: obs.EventSucceeded, Key: evKey, ICount: rec.icount})
			return
		}
		if attempt >= pol.retries || !IsTransient(rec.err) {
			break
		}
		sc.sup.Retries.Inc()
		pol.emit(obs.Event{Type: obs.EventRetry, Key: evKey, Attempt: attempt + 1, Err: rec.err.Error()})
		if !sleepCtx(ctx, sched[attempt]) {
			break
		}
	}
	if IsCancelled(rec.err) && ctx.Err() != nil {
		sc.sup.Cancels.Inc()
	} else {
		sc.sup.Failures.Inc()
	}
	pol.emit(obs.Event{Type: obs.EventFailed, Key: evKey, Err: rec.err.Error()})
}

// statTraceICount reads a checkpointed trace's recorded instruction
// total — the budget the live dashboard shows replays progressing
// against.  Only paid when events are on; any failure just yields an
// unknown (zero) budget.
func statTraceICount(pol policy, path string) uint64 {
	if pol.events == nil {
		return 0
	}
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	info, err := etrace.Stat(f)
	if err != nil {
		return 0
	}
	return info.FinalICount
}

// recordOnce performs one recording attempt.  On any failure —
// including cancellation, a worker panic, or an I/O fault — the partial
// temp trace is removed here, immediately, rather than lingering until
// Close: a sweep interrupted mid-record leaks no files even if the
// process exits right after the context is cancelled.
func (sc *Scheduler) recordOnce(pol policy, key string, attempt int, rec *recording) (err error) {
	ctx := pol.ctx
	select {
	case sc.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-sc.sem }()
	defer func() {
		if r := recover(); r != nil {
			sc.sup.Panics.Inc()
			err = &PanicError{Key: "record/" + key, Value: r, Stack: debug.Stack()}
		}
		if err != nil && rec.path != "" {
			os.Remove(rec.path)
			rec.path = ""
		}
	}()
	actx, cancel := pol.attemptContext()
	defer cancel()
	pol.emit(obs.Event{Type: obs.EventStarted, Key: "record/" + key, Attempt: attempt + 1})
	if hook := pol.hooks.BeforeRecord; hook != nil {
		if herr := hook(actx, key, attempt); herr != nil {
			return herr
		}
	}
	f, err := os.CreateTemp("", "tquad-etrace-*.bin")
	if err != nil {
		return markHostIO(err)
	}
	rec.path = f.Name()
	var out io.Writer = f
	if pol.hooks.RecordWriter != nil {
		out = pol.hooks.RecordWriter(f)
	}
	bw := bufio.NewWriterSize(out, 1<<16)
	sc.guestExecs.Add(1)
	reg, spans, icount, err := sc.study.recordGuest(bw, runOptions{
		ctx: actx, maxInstr: pol.maxInstr, hooks: pol.hooks,
		beat: pol.beatFunc("record/"+key, pol.maxInstr),
	})
	// Flush, fsync, close — in that order, every error surfaced.  The
	// fsync is what makes the recording crash-safe: once recordOnce
	// returns nil the trace bytes are on stable storage, so a host crash
	// cannot leave a later replay (or checkpoint resume) reading pages
	// the kernel never wrote back.
	if err == nil {
		if ferr := bw.Flush(); ferr != nil {
			err = markHostIO(ferr)
		}
	}
	if err == nil {
		if serr := f.Sync(); serr != nil {
			err = markHostIO(serr)
		}
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = markHostIO(cerr)
	}
	if err != nil {
		return err
	}
	rec.reg, rec.spans, rec.icount = reg, spans, icount
	return nil
}

// recordGuest executes the guest once with only the event-trace recorder
// attached, writing the trace to w.  It returns the recording run's
// private observability (merged by Flush under a "record/" root so trace
// output distinguishes the recording from the replays that consume it)
// and the executed instruction total, which becomes the replays' budget
// on the live dashboard.  Trace-write failures are host I/O, not guest
// behaviour, so they are classified by markHostIO (retryable, unless
// the errno names a stable host condition); guest failures stay
// permanent.
func (s *Study) recordGuest(w io.Writer, opt runOptions) (*obs.Registry, []obs.SpanRecord, uint64, error) {
	if opt.ctx == nil {
		opt.ctx = context.Background()
	}
	if opt.maxInstr == 0 {
		opt.maxInstr = wfs.MaxInstr
	}
	var ro *obs.Observer
	if s.Obs != nil {
		ro = obs.NewObserver()
	}
	run := ro.Tracer().Start("record")
	m, _ := s.W.NewMachine()

	instrument := ro.Tracer().Start("instrument")
	e := pin.NewEngine(m)
	cfg := s.W.Cfg
	rec, err := etrace.Record(e, w, etrace.RecordOptions{
		Workload: fmt.Sprintf("wfs frames=%d fft=%d speakers=%d", cfg.Frames, cfg.FFTSize, cfg.Speakers),
	})
	instrument.End()
	if err != nil {
		run.End()
		return nil, nil, 0, markHostIO(err)
	}
	if opt.hooks.Machine != nil {
		opt.hooks.Machine(opt.ctx, m)
	}
	if beat := opt.beat; beat != nil {
		m.PushWatchdog(func(m *vm.Machine) error { beat(m.ICount); return nil })
	}

	execute := ro.Tracer().Start("execute")
	err = m.RunContext(opt.ctx, opt.maxInstr)
	execute.SetInstr(m.ICount)
	execute.SetBytes(m.MemStats.ReadBytes() + m.MemStats.WriteBytes())
	execute.End()
	if err == nil && m.ExitCode != 0 {
		err = fmt.Errorf("guest exit code %d", m.ExitCode)
	}
	if err == nil {
		if ferr := rec.Finish(); ferr != nil {
			err = markHostIO(ferr)
		}
	}
	run.End()
	if err != nil {
		return nil, nil, 0, err
	}
	m.PublishMetrics(ro.Registry())
	e.PublishMetrics(ro.Registry())
	if ro == nil {
		return nil, nil, m.ICount, nil
	}
	return ro.Metrics, ro.Spans.Records(), m.ICount, nil
}

// groupRun is one member's attempt in a pass, live or replayed: a
// configuration and its heartbeat callback in, its result or its own
// error out.
type groupRun struct {
	Cfg  RunConfig
	Beat func(ic uint64)
	Res  *RunResult
	Err  error
}

// replayGroup replays the recorded trace at path ONCE, through an
// etrace.ParallelReplayer fanning the record stream out to one consumer
// per run, and settles every run's Res or Err.  Each run gets its own
// observer, "run"/"instrument"/"replay" spans and private registry —
// executeConfig's spans, with "replay" where the live path has
// "execute".  A trace that cannot be opened fails every run alike: a
// missing or unreadable file is host I/O and reported transient, header
// damage is an etrace.CorruptError.  Past that, runs fail one by one: a
// bad tool configuration, a panicking analysis routine (a *PanicError)
// or a non-zero recorded exit code fails its own run only, while trace
// damage and cancellation reach every run the pass was still feeding.
// wrap, when non-nil, wraps the trace file (Hooks.ReplayReader).
func (s *Study) replayGroup(ctx context.Context, runs []*groupRun, path string, jobs int, wrap func(io.ReaderAt, int64) (io.ReaderAt, int64)) {
	fail := func(err error) {
		for _, r := range runs {
			r.Err = fmt.Errorf("study: run %s: %w", r.Cfg.Key(), err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		fail(markHostIO(err))
		return
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		fail(markHostIO(err))
		return
	}
	var ra io.ReaderAt = f
	size := fi.Size()
	if wrap != nil {
		ra, size = wrap(ra, size)
	}
	pr, err := etrace.NewParallelReplayer(ra, size, etrace.ParallelOptions{Jobs: jobs})
	if err != nil {
		fail(err)
		return
	}

	type member struct {
		*groupRun
		ro     *obs.Observer
		run    *obs.Span
		replay *obs.Span
		host   *etrace.Consumer
		ts     *toolset
	}
	var members []*member
	var beats []func(uint64)
	for _, r := range runs {
		var ro *obs.Observer
		if s.Obs != nil {
			ro = obs.NewObserver()
		}
		m := &member{groupRun: r, ro: ro}
		m.run = ro.Tracer().Start("run")
		instrument := ro.Tracer().Start("instrument")
		m.host = pr.NewConsumer()
		m.ts, err = attachTools(m.host, r.Cfg, ro.Tracer())
		instrument.End()
		if err != nil {
			m.run.End()
			r.Err = fmt.Errorf("study: run %s: %w", r.Cfg.Key(), err)
			continue
		}
		if r.Beat != nil {
			beats = append(beats, r.Beat)
		}
		members = append(members, m)
	}
	if len(members) == 0 {
		return
	}
	if len(beats) > 0 {
		pr.OnProgress(func(ic uint64) {
			for _, b := range beats {
				b(ic)
			}
		})
	}

	for _, m := range members {
		m.replay = m.ro.Tracer().Start("replay")
	}
	pr.ReplayContext(ctx) // outcomes are per consumer: host.Err
	for _, m := range members {
		m.replay.SetInstr(m.host.ICount())
		rb, wb := m.host.Traffic()
		m.replay.SetBytes(rb + wb)
		m.replay.End()
	}

	for _, m := range members {
		key := m.Cfg.Key()
		err := m.host.Err()
		if err == nil && m.host.ExitCode() != 0 {
			err = fmt.Errorf("guest exit code %d", m.host.ExitCode())
		}
		var pe *etrace.PanicError
		switch {
		case errors.As(err, &pe):
			m.Err = &PanicError{Key: key, Value: pe.Value, Stack: pe.Stack}
		case err != nil:
			m.Err = fmt.Errorf("study: run %s: %w", key, err)
		}
		if m.Err != nil {
			m.run.End()
			continue
		}
		m.Res = &RunResult{Config: m.Cfg, Key: key}
		m.Res.ICount, m.Res.Overhead, m.Res.Time = m.host.ICount(), m.host.Overhead(), m.host.Time()
		m.host.PublishMetrics(m.ro.Registry())
		m.ts.collect(m.Cfg, m.Res, m.ro)
		m.run.End()
		if m.ro != nil {
			m.Res.Registry = m.ro.Metrics
			m.Res.Spans = m.ro.Spans.Records()
		}
	}
}

// toolset holds whichever tools a configuration attaches; live and
// replayed runs build it through the same attachTools call so the two
// paths cannot drift.
type toolset struct {
	flat *flatprof.Profiler
	quad *quad.Tool
	core *core.Tool
	mem  *memsim.Tool
}

// attachTools attaches the configuration's tools to the event source.
func attachTools(h pin.Host, cfg RunConfig, tr *obs.Tracer) (*toolset, error) {
	ts := &toolset{}
	switch cfg.Kind {
	case RunNative:
	case RunFlat:
		ts.flat = flatprof.Attach(h, flatprof.Options{Tracer: tr})
	case RunQUAD:
		ts.quad = quad.Attach(h, quad.Options{IncludeStack: cfg.IncludeStack})
	case RunInstrFlat:
		// The paper's configuration: QUAD with stack accesses discarded
		// early, profiled by the flat profiler (Table III).
		quad.Attach(h, quad.Options{IncludeStack: false})
		ts.flat = flatprof.Attach(h, flatprof.Options{Tracer: tr})
	case RunTQUAD:
		ts.core = core.Attach(h, core.Options{
			SliceInterval:   cfg.SliceInterval,
			IncludeStack:    cfg.IncludeStack,
			ExcludeLibs:     cfg.ExcludeLibs,
			TracePrefetches: cfg.TracePrefetches,
		})
		if cfg.Cache != "" {
			mc, err := memsim.ParseConfig(cfg.Cache)
			if err != nil {
				return nil, fmt.Errorf("study: cache config: %w", err)
			}
			// The simulator slices on the same interval as the profiler so
			// the two per-kernel series line up column for column.
			ts.mem, err = memsim.Attach(h, memsim.Options{
				Config:        mc,
				SliceInterval: cfg.SliceInterval,
				ExcludeLibs:   cfg.ExcludeLibs,
			})
			if err != nil {
				return nil, fmt.Errorf("study: cache config: %w", err)
			}
		}
	default:
		return nil, fmt.Errorf("study: unknown run kind %d", cfg.Kind)
	}
	return ts, nil
}

// collect extracts the configuration's reports into the result.
func (ts *toolset) collect(cfg RunConfig, res *RunResult, ro *obs.Observer) {
	switch cfg.Kind {
	case RunFlat, RunInstrFlat:
		res.Flat = ts.flat.Report()
	case RunQUAD:
		res.Quad = ts.quad.Report()
	case RunTQUAD:
		ts.core.PublishMetrics(ro.Registry())
		snap := ro.Tracer().Start("snapshot")
		res.Temporal = ts.core.Snapshot()
		snap.SetInstr(res.Temporal.TotalInstr)
		snap.SetBytes(profileBytes(res.Temporal))
		snap.End()
		res.Breakdown = ts.core.Breakdown()
		if ts.mem != nil {
			ts.mem.PublishMetrics(ro.Registry())
			res.Mem = ts.mem.Snapshot()
		}
	}
}
