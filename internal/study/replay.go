// Record-once/replay-many execution for the scheduler: every profiling
// configuration observes the same dynamic event stream (analysis
// routines never perturb the guest, and analysis cost lands in a
// separate overhead counter), so a sweep needs one recorded guest
// execution, replayed through every configuration's tools — all the
// configurations queued when a result is awaited in one decode pass.
// This file holds the recording and replay plumbing; replayed runs
// attach and report through the same Attach and Collect as live ones
// (attach.go).
package study

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"

	"tquad/internal/etrace"
	"tquad/internal/obs"
	"tquad/internal/pin"
	"tquad/internal/vm"
	"tquad/internal/wfs"
)

// known reports whether k is a defined run kind.
func (k RunKind) known() bool {
	switch k {
	case RunNative, RunFlat, RunQUAD, RunInstrFlat, RunTQUAD:
		return true
	}
	return false
}

// recording is one in-flight or finished guest recording, shared by
// every replayed configuration.
type recording struct {
	done   chan struct{}
	path   string // trace file; a temp file unless kept
	kept   bool   // path was adopted or persisted, so Close keeps it
	icount uint64 // recorded guest instruction total (replay budget)
	reg    *obs.Registry
	spans  *obs.Tracer
	err    error

	// generation counts how many corrupt predecessors this recording
	// replaced (Scheduler.rerecord), bounding the re-execution budget.
	generation int
}

// recordingLocked returns the scheduler's recording, starting it on
// first use.  Callers hold sc.mu.  The goroutine takes a worker slot
// itself (inside recordOnce); a replay pass waits on rec.done before
// acquiring its own, so the record-then-replay chain cannot deadlock
// even at jobs=1.
func (sc *Scheduler) recordingLocked() *recording {
	if sc.rec == nil {
		sc.rec = &recording{done: make(chan struct{})}
		sc.recs = append(sc.recs, sc.rec)
		go sc.record(sc.pol, sc.rec)
	}
	return sc.rec
}

// record drives one recording under the supervision policy.  An
// existing trace — the trace source, or the checkpoint journal's — is
// adopted, executing the guest zero times.  Otherwise the guest is
// recorded in attempts, with panic recovery and transient retry on a
// schedule seeded from recordKey, and the finished trace is persisted
// to the sink: the trace sink, or the checkpoint journal, which keeps
// the temp file when it cannot persist.  A recording that fails leaves
// nothing at its sink.
func (sc *Scheduler) record(pol policy, rec *recording) {
	defer close(rec.done)
	pol.emit(obs.Event{Type: obs.EventQueued, Key: recordKey})
	if path, ok := pol.adopt(); ok {
		rec.path, rec.kept = path, true
		rec.icount = statTraceICount(pol, path)
		sc.sup.CheckpointHits.Inc()
		pol.emit(obs.Event{Type: obs.EventCheckpointed, Key: recordKey, ICount: rec.icount})
		pol.emit(obs.Event{Type: obs.EventSucceeded, Key: recordKey, ICount: rec.icount})
		return
	}
	ctx := pol.ctx
	sink := pol.sinkPath()
	sched := backoffSchedule(recordKey, pol.retries, pol.base, pol.cap)
	for attempt := 0; ; attempt++ {
		if rec.err = ctx.Err(); rec.err != nil {
			break
		}
		rec.err = sc.recordOnce(pol, attempt, rec)
		if rec.err == nil && sink != "" {
			if err := persistTrace(rec.path, sink); err == nil {
				rec.path, rec.kept = sink, true
				if pol.ckptSink() {
					pol.ckpt.setValid(true)
				}
				sc.sup.CheckpointSaves.Inc()
				pol.emit(obs.Event{Type: obs.EventCheckpointed, Key: recordKey, ICount: rec.icount})
			} else if pol.sink != "" {
				rec.err = fmt.Errorf("study: persist trace: %w", err)
				os.Remove(rec.path)
				rec.path = ""
				break
			}
		}
		if rec.err == nil {
			pol.emit(obs.Event{Type: obs.EventSucceeded, Key: recordKey, ICount: rec.icount})
			return
		}
		if attempt >= pol.retries || !IsTransient(rec.err) {
			break
		}
		sc.sup.Retries.Inc()
		pol.emit(obs.Event{Type: obs.EventRetry, Key: recordKey, Attempt: attempt + 1, Err: rec.err.Error()})
		if !sleepCtx(ctx, sched[attempt]) {
			break
		}
	}
	pol.removeSink()
	if IsCancelled(rec.err) && ctx.Err() != nil {
		sc.sup.Cancels.Inc()
	} else {
		sc.sup.Failures.Inc()
	}
	pol.emit(obs.Event{Type: obs.EventFailed, Key: recordKey, Err: rec.err.Error()})
}

// adopt returns the existing trace the recording is served from: the
// trace source, unvalidated — its damage must surface at replay — or
// else the checkpoint journal's trace once it validates.
func (pol policy) adopt() (string, bool) {
	if pol.source != "" {
		return pol.source, true
	}
	if pol.ckpt != nil {
		return pol.ckpt.PersistedTrace()
	}
	return "", false
}

// sinkPath returns where the finished recording is persisted: the trace
// sink, else the checkpoint journal's trace path, else "" (nowhere: the
// recording stays a temp file).
func (pol policy) sinkPath() string {
	if pol.ckptSink() {
		return pol.ckpt.tracePath()
	}
	return pol.sink
}

// ckptSink reports whether recordings persist into the checkpoint
// journal.
func (pol policy) ckptSink() bool { return pol.sink == "" && pol.ckpt != nil }

// removeSink deletes the persisted trace, if there is a sink, after
// making the checkpoint forget it was valid.
func (pol policy) removeSink() {
	if pol.ckptSink() {
		pol.ckpt.setValid(false)
	}
	if sink := pol.sinkPath(); sink != "" {
		os.Remove(sink)
	}
}

// persistTrace moves a finished recording from tmp to final, atomically:
// the content lands under a .part name first (rename when tmp shares
// final's filesystem, copy otherwise) and only a final rename makes it
// visible.  The trace gets the mode os.Create gives, not the temp file's
// 0600.
func persistTrace(tmp, final string) error {
	part := final + ".part"
	f, err := os.Create(part)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	f.Close()
	if err == nil {
		err = os.Chmod(tmp, fi.Mode())
	}
	copied := false
	if err == nil && os.Rename(tmp, part) != nil {
		err, copied = copyFile(tmp, part), true
	}
	if err == nil {
		err = os.Rename(part, final)
	}
	if err != nil {
		os.Remove(part)
	} else if copied {
		os.Remove(tmp)
	}
	return err
}

// copyFile copies src to a file it creates at dst, and fsyncs it.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, in)
	if err == nil {
		err = out.Sync()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// statTraceICount reads an adopted trace's recorded instruction
// total — the budget the live dashboard shows replays progressing
// against — from its end record through etrace.Stat, which decodes
// every chunk, so damage in one chunk does not hide the end record in
// the last.  Only paid when events are on; any failure just yields an
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
	fi, err := f.Stat()
	if err != nil {
		return 0
	}
	info, err := etrace.Stat(f, fi.Size())
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
func (sc *Scheduler) recordOnce(pol policy, attempt int, rec *recording) (err error) {
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
			err = &PanicError{Key: recordKey, Value: r, Stack: debug.Stack()}
		}
		if err != nil && rec.path != "" {
			os.Remove(rec.path)
			rec.path = ""
		}
	}()
	actx, cancel := pol.attemptContext()
	defer cancel()
	pol.emit(obs.Event{Type: obs.EventStarted, Key: recordKey, Attempt: attempt + 1})
	if hook := pol.hooks.BeforeRecord; hook != nil {
		if herr := hook(actx, attempt); herr != nil {
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
		beat: pol.beatFunc(recordKey, pol.maxInstr),
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
// private observability (merged by Flush under a recordKey root so trace
// output distinguishes the recording from the replays that consume it)
// and the executed instruction total, which becomes the replays' budget
// on the live dashboard.  Trace-write failures are host I/O, not guest
// behaviour, so they are classified by markHostIO (retryable, unless
// the errno names a stable host condition); guest failures stay
// permanent.
func (s *Study) recordGuest(w io.Writer, opt runOptions) (*obs.Registry, *obs.Tracer, uint64, error) {
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
	return ro.Metrics, ro.Spans, m.ICount, nil
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
// damage and cancellation reach every run the pass was still feeding.  A
// salvage replay that applied no instruction fails too, its error
// carrying the salvage report: there is no profile to report.
// opts sets the decode workers and salvage mode, and wrap, when non-nil,
// wraps the trace file (Hooks.ReplayReader).
func (s *Study) replayGroup(ctx context.Context, runs []*groupRun, path string, opts etrace.ParallelOptions, wrap func(io.ReaderAt, int64) (io.ReaderAt, int64)) {
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
	pr, err := etrace.NewParallelReplayer(ra, size, opts)
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
		ts     *Tools
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
		m.ts, err = Attach(m.host, r.Cfg, ro.Tracer())
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
		if rep := m.host.SalvageReport(); err == nil && rep != nil && m.host.ICount() == 0 {
			err = fmt.Errorf("salvage replay applied no instruction: %s", rep)
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
		m.host.PublishMetrics(m.ro.Registry())
		m.Res = m.ts.Collect(m.host.ICount(), m.host.Overhead(), m.ro)
		m.Res.Salvage = m.host.SalvageReport()
		m.run.End()
		if m.ro != nil {
			m.Res.Registry = m.ro.Metrics
			m.Res.Spans = m.ro.Spans
		}
	}
}
