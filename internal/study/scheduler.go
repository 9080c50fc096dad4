// The parallel experiment scheduler: the paper's evaluation is a sweep
// (one flat profile, one QUAD run per stack mode, and tQUAD at many
// slice intervals over the same WFS binary), and every run is
// independent — each gets its own vm.Machine instantiated from the
// shared, immutable Workload.  The scheduler executes submitted runs in
// a worker pool bounded by a jobs limit (default GOMAXPROCS), memoises
// results in a cache keyed by the full run configuration so figures and
// tables that share a configuration execute the guest once, and folds
// each run's private observability (registry + spans) into the study's
// observer in config-key order so the merged output is deterministic
// regardless of run completion order.
//
// Machine-independence audit (what makes the fan-out safe): a Machine
// and everything it reaches (mem.Memory, gos.OS, pin.Engine, the
// attached tools and their callstacks) is created per run and confined
// to that run's goroutine; the only state shared between runs is the
// Workload's linked program and synthesised input, both immutable after
// construction (image.Image is never mutated post-link, wav.Encode is
// pure), plus this scheduler's memo map and the per-run registries,
// which are lock-protected.
package study

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tquad/internal/core"
	"tquad/internal/etrace"
	"tquad/internal/flatprof"
	"tquad/internal/memsim"
	"tquad/internal/obs"
	"tquad/internal/phase"
	"tquad/internal/pin"
	"tquad/internal/quad"
	"tquad/internal/vm"
	"tquad/internal/wfs"
)

// RunKind selects which profiler configuration a run executes.
type RunKind uint8

const (
	// RunNative executes the guest uninstrumented (the slowdown
	// baseline and the slice-sizing denominator).
	RunNative RunKind = iota
	// RunFlat produces the gprof-style flat profile (Table I).
	RunFlat
	// RunQUAD runs the QUAD producer/consumer tracker (Table II).
	RunQUAD
	// RunInstrFlat runs the flat profiler on the QUAD-instrumented
	// binary (Table III's instrumented column).
	RunInstrFlat
	// RunTQUAD runs the temporal profiler (Figures 6/7, Table IV, the
	// slowdown sweep).
	RunTQUAD
)

func (k RunKind) String() string {
	switch k {
	case RunNative:
		return "native"
	case RunFlat:
		return "flat"
	case RunQUAD:
		return "quad"
	case RunInstrFlat:
		return "instrflat"
	case RunTQUAD:
		return "tquad"
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// RunConfig is the full configuration of one instrumented run — the
// memoisation key.  Two submissions with equal RunConfigs share a single
// guest execution.
type RunConfig struct {
	Kind          RunKind
	SliceInterval uint64 // tQUAD only
	IncludeStack  bool   // QUAD and tQUAD
	ExcludeLibs   bool   // QUAD and tQUAD
	// Cache, when non-empty, additionally attaches the memory-hierarchy
	// simulator with this geometry (a memsim.ParseConfig string; use the
	// canonical Key() form so equal hierarchies memoise together).
	// tQUAD only.  Empty leaves memsim detached and the run byte-for-byte
	// identical to a pre-memsim run.
	Cache string
}

// Key renders the canonical cache key: every field that influences the
// run appears, in a fixed order, so equal configurations collide and the
// merged observability ordering is stable.
func (c RunConfig) Key() string {
	switch c.Kind {
	case RunNative, RunFlat, RunInstrFlat:
		return c.Kind.String()
	case RunQUAD:
		// The libs component appears only when set, so all-routines QUAD
		// keys — and the checkpoints that store them — keep their form.
		key := fmt.Sprintf("quad/stack=%s", stackWord(c.IncludeStack))
		if c.ExcludeLibs {
			key += "/libs=main"
		}
		return key
	default:
		// Every run takes the prefetch fast path; the component stays so
		// checkpointed keys, error texts and artifact names keep their form.
		key := fmt.Sprintf("tquad/slice=%d/stack=%s/libs=%s/prefetch=fast",
			c.SliceInterval, stackWord(c.IncludeStack), word(c.ExcludeLibs, "main", "all"))
		// The cache component appears only when set, so pre-memsim keys —
		// and everything ordered by them — are unchanged.
		if c.Cache != "" {
			key += "/cache=" + c.Cache
		}
		return key
	}
}

func stackWord(include bool) string { return word(include, "include", "exclude") }

func word(b bool, t, f string) string {
	if b {
		return t
	}
	return f
}

// RunResult is the outcome of one executed configuration.  Only the
// fields matching the Kind are populated.
type RunResult struct {
	Config RunConfig
	Key    string

	ICount   uint64 // guest instructions executed
	Overhead uint64 // simulated analysis overhead charged
	Time     uint64 // ICount + Overhead (the simulated clock)

	Flat      *flatprof.Profile      // RunFlat, RunInstrFlat
	Quad      *quad.Report           // RunQUAD
	Temporal  *core.Profile          // RunTQUAD
	Breakdown core.OverheadBreakdown // RunTQUAD
	Mem       *memsim.Profile        // RunTQUAD with Cache set

	// Salvage is what a salvage replay of the adopted trace lost (see
	// SetTraceSource); nil for every other run.
	Salvage *etrace.SalvageReport

	// Registry and Spans hold the run's private observability, recorded
	// into per-run sinks so concurrent runs never contend; Scheduler.Flush
	// merges them into the study's observer.  Nil when observability is
	// disabled.
	Registry *obs.Registry
	Spans    *obs.Tracer
}

// Pending is a handle to a submitted (possibly shared) run.
type Pending struct {
	sc   *Scheduler
	done chan struct{}
	res  *RunResult
	err  error

	// awaited: a Wait has blocked on the run, so its next replay pass
	// starts as soon as it is queued.  Guarded by the scheduler's mu.
	awaited bool
}

// Wait blocks until the run completes and returns its result.  A Wait
// that has to block starts a replay pass over every queued replay; one
// on a finished run starts nothing.  Multiple goroutines may Wait on the
// same Pending.
func (p *Pending) Wait() (*RunResult, error) {
	select {
	case <-p.done:
	default:
		p.sc.mu.Lock()
		p.awaited = true
		p.sc.mu.Unlock()
		p.sc.startPass()
		<-p.done
	}
	return p.res, p.err
}

// Scheduler executes run configurations on a bounded worker pool with
// config-keyed memoisation.  Safe for concurrent use.
type Scheduler struct {
	study *Study
	sem   chan struct{}

	// replay selects record-once/replay-many execution (the default): one
	// guest execution, recorded as an event trace, then cheap replays of
	// it, as many configurations per decode pass as were queued when a
	// result was awaited.  Disable with SetReplay(false) to execute every
	// configuration live.
	replay     bool
	guestExecs atomic.Uint64

	// replayJobs is the decode worker count handed to replay passes
	// (etrace.ParallelOptions.Jobs: 0 means GOMAXPROCS, 1 decodes inline).
	// decodePasses counts how many times a trace was decoded to serve
	// replays — the replay analogue of GuestExecutions: a sweep of N
	// configurations over one recording should cost one pass, not N.
	replayJobs   int
	decodePasses atomic.Uint64

	sup obs.Supervision

	mu sync.Mutex
	// pol is the supervision policy each submission copies (see
	// supervise.go).  Configured before the first Submit; defaults are a
	// background context, no retries, no per-run timeout, and the wfs
	// instruction budget.
	pol    policy
	memo   map[string]*Pending
	rec    *recording      // the recording replays read; nil before the first replay
	recs   []*recording    // every recording made, rec's corrupt predecessors included
	queue  []*member       // replays waiting for the next pass
	merged map[string]bool // keys, recordKey included, already folded into the study observer
}

// recordKey is the guest recording's event key and span root.
const recordKey = "record/guest"

// NewScheduler creates a scheduler over the study's workload.  jobs
// bounds the number of concurrently executing guests; values <= 0 select
// GOMAXPROCS.
func NewScheduler(s *Study, jobs int) *Scheduler {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	var reg *obs.Registry
	if s != nil && s.Obs != nil {
		reg = s.Obs.Registry()
	}
	return &Scheduler{
		study:  s,
		sem:    make(chan struct{}, jobs),
		replay: true,
		sup:    obs.SupervisionCounters(reg),
		pol: policy{
			ctx:      context.Background(),
			base:     100 * time.Millisecond,
			cap:      5 * time.Second,
			maxInstr: wfs.MaxInstr,
		},
		memo:   make(map[string]*Pending),
		merged: make(map[string]bool),
	}
}

// SetContext installs the sweep-wide context: cancelling it abandons
// queued runs, stops in-flight guests at their next block boundary, and
// makes every affected Pending fail with a cancellation error.  Call
// before the first Submit.
func (sc *Scheduler) SetContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	sc.mu.Lock()
	sc.pol.ctx = ctx
	sc.mu.Unlock()
}

// SetRetries sets how many times a transiently failed run attempt is
// re-executed (default 0: fail fast).  Permanent guest failures and
// cancellations are never retried.
func (sc *Scheduler) SetRetries(n int) {
	sc.mu.Lock()
	if n < 0 {
		n = 0
	}
	sc.pol.retries = n
	sc.mu.Unlock()
}

// SetBackoff overrides the retry backoff's base and cap.  Jitter stays
// deterministic per run key.
func (sc *Scheduler) SetBackoff(base, cap time.Duration) {
	sc.mu.Lock()
	sc.pol.base, sc.pol.cap = base, cap
	sc.mu.Unlock()
}

// SetRunTimeout bounds each run attempt's wall-clock time (0: none).
// A timed-out attempt fails permanently — the guest is deterministic,
// so a hang would only repeat.
func (sc *Scheduler) SetRunTimeout(d time.Duration) {
	sc.mu.Lock()
	sc.pol.runTimeout = d
	sc.mu.Unlock()
}

// SetMaxInstr overrides the per-run guest instruction budget (values
// <= 0 restore the wfs default).
func (sc *Scheduler) SetMaxInstr(n uint64) {
	sc.mu.Lock()
	if n == 0 {
		n = wfs.MaxInstr
	}
	sc.pol.maxInstr = n
	sc.mu.Unlock()
}

// SetHooks installs the supervision/fault-injection hooks.  Call before
// the first Submit.
func (sc *Scheduler) SetHooks(h Hooks) {
	sc.mu.Lock()
	sc.pol.hooks = h
	sc.mu.Unlock()
}

// SetEvents attaches a lifecycle event sink: every subsequently
// submitted run and recording emits queued/started/heartbeat/retry/
// checkpointed/succeeded/failed events to it (see internal/obs).  A nil
// sink — the default — disables events entirely: the hot paths stay
// byte-identical to an event-free scheduler.  Call before the first
// Submit.
func (sc *Scheduler) SetEvents(sink obs.EventSink) {
	sc.mu.Lock()
	sc.pol.events = sink
	sc.mu.Unlock()
}

// SetCheckpoint attaches an open checkpoint journal: completed runs are
// journalled as they finish, finished recordings are persisted into the
// journal directory, and on resume both are served from it — a resumed
// sweep performs zero new guest executions for completed work.  Call
// before the first Submit.  The scheduler does not close the journal.
func (sc *Scheduler) SetCheckpoint(c *Checkpoint) {
	sc.mu.Lock()
	sc.pol.ckpt = c
	sc.mu.Unlock()
}

// SetTraceSource adopts the recorded trace at path as the scheduler's
// recording: replay-mode runs read it, and the guest never executes.  The
// file is read-only input: a damaged one fails its runs with an
// etrace.IsCorrupt error instead of being re-recorded, and it is never
// removed or rewritten.  With salvage set, replays skip damaged chunks
// and every RunResult carries the salvage report.  Call before the first
// Submit.
func (sc *Scheduler) SetTraceSource(path string, salvage bool) {
	sc.mu.Lock()
	sc.pol.source, sc.pol.salvage = path, salvage
	sc.mu.Unlock()
}

// SetTraceSink persists the scheduler's recording at path, where it
// appears only once complete and fsynced.  A recording that fails leaves
// no file at path, not even an older one, and one found corrupt at
// replay is re-recorded into it.  Call before the first Submit.
func (sc *Scheduler) SetTraceSink(path string) {
	sc.mu.Lock()
	sc.pol.sink = path
	sc.mu.Unlock()
}

// SetReplay switches between record-once/replay-many execution (the
// default) and live execution of every configuration.  Call it before
// the first Submit; already-submitted runs keep the mode they started
// under.
func (sc *Scheduler) SetReplay(on bool) {
	sc.mu.Lock()
	sc.replay = on
	sc.mu.Unlock()
}

// GuestExecutions returns how many guest executions the scheduler has
// started — in replay mode, the number of recordings rather than the
// number of submitted configurations.
func (sc *Scheduler) GuestExecutions() uint64 { return sc.guestExecs.Load() }

// SetReplayJobs sets how many decode workers a replay pass uses.  0, the
// default, means GOMAXPROCS workers; 1 decodes inline, with no worker
// pool.  Call before the first Submit.
func (sc *Scheduler) SetReplayJobs(n int) {
	sc.mu.Lock()
	if n < 0 {
		n = 0
	}
	sc.replayJobs = n
	sc.mu.Unlock()
}

// DecodePasses returns how many decode passes over recorded traces the
// scheduler has performed — at most one per wait for a result that
// found replays queued, rather than one per submitted configuration.  A
// pass holding only the native run of a recording this scheduler
// executed decodes nothing: the recording serves it.
func (sc *Scheduler) DecodePasses() uint64 { return sc.decodePasses.Load() }

// Close waits for all submitted work and removes the recorded trace
// temp files.  Adopted and persisted traces are kept — they belong to
// the trace source, the sink or the checkpoint journal, not the
// scheduler.  Call it when the sweep is done; the memoised results stay
// valid.
func (sc *Scheduler) Close() {
	sc.mu.Lock()
	pend := make([]*Pending, 0, len(sc.memo))
	for _, p := range sc.memo {
		pend = append(pend, p)
	}
	sc.mu.Unlock()
	for _, p := range pend {
		p.Wait()
	}
	// Every run has settled, so no rerecord can add a recording now.
	sc.mu.Lock()
	recs := sc.recs
	sc.mu.Unlock()
	for _, r := range recs {
		<-r.done
		if r.path != "" && !r.kept {
			os.Remove(r.path)
			r.path = ""
		}
	}
}

// Submit schedules the configuration for execution and returns a handle
// to its (possibly already running or finished) result.  Submissions
// with a configuration seen before — by this scheduler — reuse the
// earlier run.  A live run starts at once; a replay starts the
// recording if it is the first, then waits in the queue for the next
// pass, which the next blocking Wait, Flush or Close starts.
func (sc *Scheduler) Submit(cfg RunConfig) *Pending {
	key := cfg.Key()
	sc.mu.Lock()
	if p, ok := sc.memo[key]; ok {
		sc.mu.Unlock()
		return p
	}
	p := &Pending{sc: sc, done: make(chan struct{})}
	sc.memo[key] = p
	m := &member{p: p, cfg: cfg, key: key, pol: sc.pol}
	replay := sc.replay
	var rec *recording
	if replay && cfg.Kind.known() {
		rec = sc.recordingLocked()
	}
	sc.mu.Unlock()
	m.pol.emit(obs.Event{Type: obs.EventQueued, Key: key})
	if replay && rec == nil {
		// Reject before recording anything: an unknown kind must not cost
		// (or wait for) a guest execution, and its failure must surface
		// for every duplicate submission of the same key.
		p.err = fmt.Errorf("study: unknown run kind %d", cfg.Kind)
		m.pol.emit(obs.Event{Type: obs.EventFailed, Key: key, Err: p.err.Error()})
		close(p.done)
		return p
	}
	sc.enqueue(rec, m)
	return p
}

// member is one submitted configuration, with the policy snapshot from
// its submission and the attempts it has spent so far.  actx and cancel
// belong to the attempt in flight: its context, bounded by the run
// timeout, from the attempt's start until settle.
type member struct {
	p       *Pending
	cfg     RunConfig
	key     string
	pol     policy
	attempt int

	actx   context.Context
	cancel context.CancelFunc
}

// enqueue sends a member to its next pass.  With rec nil (replay off)
// that is a live run of its own, started at once.  Otherwise the member
// joins the replay queue, and when its result is already awaited — a
// retry, a rerecord or a BeforeRun hook re-queues it — its pass starts
// at once.
func (sc *Scheduler) enqueue(rec *recording, m *member) {
	if rec == nil {
		go sc.runPass(nil, []*member{m})
		return
	}
	sc.mu.Lock()
	sc.queue = append(sc.queue, m)
	awaited := m.p.awaited
	sc.mu.Unlock()
	if awaited {
		sc.startPass()
	}
}

// startPass starts one replay pass over every queued member, once the
// scheduler's recording is done.  With nothing queued it starts nothing.
func (sc *Scheduler) startPass() {
	sc.mu.Lock()
	members, rec := sc.queue, sc.rec
	sc.queue = nil
	sc.mu.Unlock()
	if len(members) == 0 {
		return
	}
	go func() {
		<-rec.done
		sc.runPass(rec, members)
	}()
}

// runPass runs the members' attempts: with rec nil, a single live
// member's; otherwise those of the members of one replay pass over rec.
// A failed recording fails them all.  Otherwise the pass takes one
// worker slot, begins every member's attempt that is not yet under way,
// and runs the members ready to go — a live guest execution, or one
// replay of the recorded trace with a consumer each.  Every member's
// outcome is then settled on its own.
func (sc *Scheduler) runPass(rec *recording, members []*member) {
	if rec != nil && rec.err != nil {
		for _, m := range members {
			m.p.err = fmt.Errorf("study: run %s: record: %w", m.key, rec.err)
			m.pol.emit(obs.Event{Type: obs.EventFailed, Key: m.key, Err: m.p.err.Error()})
			close(m.p.done)
		}
		return
	}
	// Members of one pass share their scheduler's context (SetContext
	// precedes the first Submit), so the first one's will do.
	ctx := members[0].pol.ctx
	select {
	case sc.sem <- struct{}{}:
	case <-ctx.Done():
		for _, m := range members {
			sc.settle(rec, m, nil, fmt.Errorf("study: run %s: %w", m.key, ctx.Err()))
		}
		return
	}
	defer func() { <-sc.sem }()

	var ready []*member
	for _, m := range members {
		if m.actx != nil || sc.begin(rec, m) {
			ready = append(ready, m)
		}
	}
	if len(ready) == 0 {
		return
	}
	// The members share their sweep context, so the attempt context with
	// the latest deadline (or none) ends last: the pass runs under it, and
	// no member's deadline cuts a sibling's replay short.
	pctx := ready[0].actx
	runs := make([]*groupRun, len(ready))
	for i, m := range ready {
		budget := m.pol.maxInstr
		if rec != nil {
			budget = rec.icount
		}
		runs[i] = &groupRun{Cfg: m.cfg, Beat: m.pol.beatFunc(m.key, budget)}
		if last, ok := pctx.Deadline(); ok {
			if d, ok := m.actx.Deadline(); !ok || d.After(last) {
				pctx = m.actx
			}
		}
	}
	sc.execute(pctx, rec, ready[0].pol, runs)
	for i, m := range ready {
		sc.settle(rec, m, runs[i].Res, runs[i].Err)
	}
}

// begin starts a member's attempt: the started event, the attempt
// context under the member's own run timeout, then the BeforeRun hook.
// It reports whether the member can run in this pass.  A member with a
// hook cannot: the hook runs on the member's own goroutine — one that
// hangs holds up no other member — and the member is queued again once
// the hook lets it through.
func (sc *Scheduler) begin(rec *recording, m *member) bool {
	if cerr := m.pol.ctx.Err(); cerr != nil {
		sc.settle(rec, m, nil, fmt.Errorf("study: run %s: %w", m.key, cerr))
		return false
	}
	m.actx, m.cancel = m.pol.attemptContext()
	m.pol.emit(obs.Event{Type: obs.EventStarted, Key: m.key, Attempt: m.attempt + 1})
	if m.pol.hooks.BeforeRun == nil {
		return true
	}
	go func() {
		if err := beforeRun(m); err != nil {
			sc.settle(rec, m, nil, err)
		} else {
			sc.enqueue(rec, m)
		}
	}()
	return false
}

// beforeRun fires the member's BeforeRun hook under its attempt context,
// converting a panic in the hook into a *PanicError.
func beforeRun(m *member) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Key: m.key, Value: v, Stack: debug.Stack()}
		}
	}()
	if herr := m.pol.hooks.BeforeRun(m.actx, m.cfg, m.attempt); herr != nil {
		return fmt.Errorf("study: run %s: %w", m.key, herr)
	}
	return nil
}

// execute runs a pass under the policy of its first member: the lone
// live member's guest execution when rec is nil, else one replay of
// rec's trace (none when only a native run, served by the recording,
// is in the pass).  A panic outside the replay consumers' analysis routines
// (which fail their own run only) fails every run it left unsettled.
func (sc *Scheduler) execute(ctx context.Context, rec *recording, pol policy, runs []*groupRun) {
	defer func() {
		if v := recover(); v != nil {
			stack := debug.Stack()
			for _, r := range runs {
				if r.Res == nil && r.Err == nil {
					r.Err = &PanicError{Key: r.Cfg.Key(), Value: v, Stack: stack}
				}
			}
		}
	}()
	if rec == nil {
		r := runs[0]
		if r.Cfg.Kind.known() {
			sc.guestExecs.Add(1)
		}
		r.Res, r.Err = sc.study.executeConfig(r.Cfg, runOptions{
			ctx: ctx, maxInstr: pol.maxInstr, hooks: pol.hooks, beat: r.Beat,
		})
		return
	}
	// The recording machine already counted what a native replay would,
	// so a recording the guest executed for serves its native run.
	var replays []*groupRun
	for _, r := range runs {
		if r.Cfg.Kind == RunNative && !rec.adopted {
			r.Res = sc.study.nativeResult(rec)
			continue
		}
		replays = append(replays, r)
	}
	if len(replays) == 0 {
		return
	}
	sc.mu.Lock()
	jobs := sc.replayJobs
	sc.mu.Unlock()
	sc.decodePasses.Add(1)
	sc.study.replayGroup(ctx, replays, rec.path, etrace.ParallelOptions{Jobs: jobs, Salvage: pol.salvage}, pol.hooks.ReplayReader)
}

// settle applies the one outcome rule to a member after an attempt.
// Success finishes it.  A corrupt recorded trace sends it through
// rerecord and queues it for the replacement recording without spending
// an attempt.  A transient failure with attempts left emits a retry
// event and queues it again after its backoff.  Anything else —
// permanent errors, panics, cancellation — fails it.
func (sc *Scheduler) settle(rec *recording, m *member, res *RunResult, err error) {
	if m.cancel != nil {
		m.cancel()
		m.actx, m.cancel = nil, nil
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		sc.sup.Panics.Inc()
	}
	switch {
	case err == nil:
		m.p.res = res
		sc.finishMember(m)
		close(m.p.done)
		return
	case rec != nil && etrace.IsCorrupt(err):
		if fresh := sc.rerecord(m.pol, rec); fresh != nil {
			sc.enqueue(fresh, m)
			return
		}
	case m.attempt < m.pol.retries && IsTransient(err):
		sc.sup.Retries.Inc()
		m.pol.emit(obs.Event{Type: obs.EventRetry, Key: m.key, Attempt: m.attempt + 1, Err: err.Error()})
		delay := backoffSchedule(m.key, m.pol.retries, m.pol.base, m.pol.cap)[m.attempt]
		m.attempt++
		go func() {
			if sleepCtx(m.pol.ctx, delay) {
				sc.enqueue(rec, m)
			} else {
				sc.fail(m, err)
			}
		}()
		return
	}
	sc.fail(m, err)
}

// fail ends a member with err, counted as a cancellation when its sweep
// was cancelled and as a failure otherwise.
func (sc *Scheduler) fail(m *member, err error) {
	if IsCancelled(err) && m.pol.ctx.Err() != nil {
		sc.sup.Cancels.Inc()
	} else {
		sc.sup.Failures.Inc()
	}
	m.p.err = err
	m.pol.emit(obs.Event{Type: obs.EventFailed, Key: m.key, Err: err.Error()})
	close(m.p.done)
}

// rerecord handles a recorded trace that failed integrity verification
// at replay time: the guest execution was fine — the bytes rotted after
// recording — so the trace is re-recordable, not a sweep failure.  It
// replaces the bad recording with one fresh guest execution, which every
// later pass reads, and removes the copy at its sink (a resume must not
// serve the same rot).  Concurrent callers converge on the same
// replacement; the budget is one re-execution (a corrupt replacement
// means the fault is systematic, and the second failure surfaces).
// Returns nil when the budget is exhausted, or when the trace is the
// adopted trace source, which is never re-recorded.
func (sc *Scheduler) rerecord(pol policy, bad *recording) *recording {
	sc.mu.Lock()
	if sc.rec != bad {
		fresh := sc.rec
		sc.mu.Unlock()
		return fresh
	}
	if bad.generation >= 1 || pol.source != "" {
		sc.mu.Unlock()
		return nil
	}
	fresh := &recording{done: make(chan struct{}), generation: bad.generation + 1}
	sc.rec = fresh
	sc.recs = append(sc.recs, fresh)
	sc.mu.Unlock()
	pol.removeSink()
	if sc.study != nil && sc.study.Obs != nil {
		sc.study.Obs.Registry().Counter(obs.MetricSchedRerecords).Inc()
	}
	pol.emit(obs.Event{
		Type: obs.EventRetry, Key: recordKey,
		Attempt: fresh.generation + 1, Err: "recorded trace corrupt; re-executing guest",
	})
	go sc.record(pol, fresh)
	return fresh
}

// finishMember emits the success-side lifecycle events and checkpoints
// one completed member (shared by the live and replay paths).
func (sc *Scheduler) finishMember(m *member) {
	m.pol.emit(obs.Event{Type: obs.EventSucceeded, Key: m.key, ICount: m.p.res.ICount})
	if m.pol.ckpt != nil {
		m.pol.ckpt.markDone(doneEntry{
			Key: m.key, Kind: m.cfg.Kind.String(),
			ICount: m.p.res.ICount, Time: m.p.res.Time,
		})
		m.pol.emit(obs.Event{Type: obs.EventCheckpointed, Key: m.key, ICount: m.p.res.ICount})
	}
}

// Run submits the configuration and waits for its result.
func (sc *Scheduler) Run(cfg RunConfig) (*RunResult, error) {
	return sc.Submit(cfg).Wait()
}

// NativeICount returns the uninstrumented instruction count via a
// (memoised) native run.
func (sc *Scheduler) NativeICount() (uint64, error) {
	res, err := sc.Run(RunConfig{Kind: RunNative})
	if err != nil {
		return 0, err
	}
	return res.ICount, nil
}

// SliceForCount returns the slice interval that divides the run into
// roughly the requested number of slices (the paper picks 1e8 for 64
// slices, 25e6 for 255), sized by a (memoised) native run.  A salvaged
// trace has lost instructions, so it cannot size slices.
func (sc *Scheduler) SliceForCount(slices uint64) (uint64, error) {
	res, err := sc.Run(RunConfig{Kind: RunNative})
	if err != nil {
		return 0, err
	}
	if res.Salvage != nil && res.Salvage.Damaged() {
		return 0, errors.New("cannot size slices from a damaged trace; pass an explicit -slice")
	}
	return max(res.ICount/slices, 1), nil
}

// SubmitSweep submits the tQUAD sweep grid of the profiler and of a
// daemon job: each 0 interval resolves to ~64 slices, then one run per
// interval × cache key (none: one cache-less run), interval-major, all
// queued for the next replay pass.  It returns the resolved intervals
// (WriteSweepReport's) and the runs in submission order.
func (sc *Scheduler) SubmitSweep(intervals []uint64, caches []string, includeStack, excludeLibs bool) ([]uint64, []*Pending, error) {
	resolved := make([]uint64, len(intervals))
	for i, iv := range intervals {
		if iv == 0 {
			var err error
			if iv, err = sc.SliceForCount(64); err != nil {
				return nil, nil, fmt.Errorf("sizing run for -slice 0: %w", err)
			}
		}
		resolved[i] = iv
	}
	if len(caches) == 0 {
		caches = []string{""}
	}
	pend := make([]*Pending, 0, len(resolved)*len(caches))
	for _, iv := range resolved {
		for _, c := range caches {
			pend = append(pend, sc.Submit(RunConfig{
				Kind: RunTQUAD, SliceInterval: iv, IncludeStack: includeStack, ExcludeLibs: excludeLibs, Cache: c,
			}))
		}
	}
	return resolved, pend, nil
}

// WaitAll waits for every run and returns their results in order, or
// the first error.
func WaitAll(pend ...*Pending) ([]*RunResult, error) {
	results := make([]*RunResult, len(pend))
	for i, p := range pend {
		res, err := p.Wait()
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}

// Flush waits for every submitted run — starting a replay pass over
// whatever is queued — and folds each run's private observability into
// the study's observer, in config-key order, exactly once per run.  It
// returns the failed runs' errors, also in config-key order (empty when
// the whole sweep succeeded).
func (sc *Scheduler) Flush() []error {
	sc.mu.Lock()
	keys := make([]string, 0, len(sc.memo))
	for key := range sc.memo {
		keys = append(keys, key)
	}
	rec := sc.rec
	sc.mu.Unlock()
	sort.Strings(keys)

	// The recording merges first, under its recordKey root, so the trace
	// output shows the guest execution ahead of the replays it feeds.  A
	// failed recording is not reported here: its error reaches every
	// dependent configuration's Pending below.
	if rec != nil {
		<-rec.done
		if rec.err == nil && rec.reg != nil && sc.firstMerge(recordKey) {
			sc.study.Obs.Registry().Merge(rec.reg)
			sc.study.Obs.Tracer().Adopt(recordKey, rec.spans)
		}
	}

	var errs []error
	for _, key := range keys {
		sc.mu.Lock()
		p := sc.memo[key]
		sc.mu.Unlock()
		res, err := p.Wait()
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if res.Registry == nil || !sc.firstMerge(key) {
			continue
		}
		sc.study.Obs.Registry().Merge(res.Registry)
		sc.study.Obs.Tracer().Adopt(key, res.Spans)
	}
	return errs
}

// firstMerge reports whether key's observability is not yet folded into
// the study observer, and marks it folded.
func (sc *Scheduler) firstMerge(key string) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	seen := sc.merged[key]
	sc.merged[key] = true
	return !seen
}

// Slowdown reproduces the Section V.A sweep through the scheduler: the
// whole configuration grid (slice interval × stack mode, plus one QUAD
// row per stack mode) is submitted up front and executes concurrently up
// to the jobs bound; rows come back in sweep order regardless of run
// completion order, byte-identical at every jobs bound.
func (sc *Scheduler) Slowdown(sliceIntervals []uint64) ([]SlowdownRow, error) {
	native, err := sc.NativeICount()
	if err != nil {
		return nil, err
	}
	type sub struct {
		row SlowdownRow
		p   *Pending
	}
	var subs []sub
	for _, iv := range sliceIntervals {
		for _, incl := range []bool{true, false} {
			subs = append(subs, sub{
				row: SlowdownRow{Tool: "tQUAD", SliceInterval: iv, IncludeStack: incl},
				p:   sc.Submit(RunConfig{Kind: RunTQUAD, SliceInterval: iv, IncludeStack: incl}),
			})
		}
	}
	for _, incl := range []bool{true, false} {
		subs = append(subs, sub{
			row: SlowdownRow{Tool: "QUAD", IncludeStack: incl},
			p:   sc.Submit(RunConfig{Kind: RunQUAD, IncludeStack: incl}),
		})
	}
	rows := make([]SlowdownRow, 0, len(subs))
	for _, u := range subs {
		res, err := u.p.Wait()
		if err != nil {
			return nil, err
		}
		u.row.Slowdown = float64(res.Time) / float64(native)
		rows = append(rows, u.row)
	}
	sc.Flush()
	return rows, nil
}

// PhasesFromProfile runs Table IV phase detection over a fine-sliced
// tQUAD profile (a RunTQUAD result's Temporal), considering only the
// paper's kernels.
func (s *Study) PhasesFromProfile(prof *core.Profile) []phase.Phase {
	opts := phase.Options{IncludeStack: true, Kernels: wfs.KernelNames(), Tracer: s.Obs.Tracer()}
	return phase.Detect(prof, opts)
}

// executeConfig performs one run on a fresh machine with per-run
// observability sinks, so any number of executeConfig calls may be in
// flight at once.
func (s *Study) executeConfig(cfg RunConfig, opt runOptions) (*RunResult, error) {
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
	run := ro.Tracer().Start("run")
	m, _ := s.W.NewMachine()

	var e *pin.Engine
	instrument := ro.Tracer().Start("instrument")
	if cfg.Kind != RunNative {
		e = pin.NewEngine(m)
	}
	var host pin.Host
	if e != nil {
		host = e
	}
	ts, err := Attach(host, cfg, ro.Tracer())
	instrument.End()
	if err != nil {
		run.End()
		return nil, err
	}
	if opt.hooks.Machine != nil {
		opt.hooks.Machine(opt.ctx, m)
	}
	if beat := opt.beat; beat != nil {
		// Heartbeats ride the block-boundary watchdog, so with no beat
		// (and no other supervision) the vm keeps its unsupervised fast
		// loop and the run stays byte-identical to an unobserved one.
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
	if err != nil {
		run.End()
		return nil, fmt.Errorf("study: run %s: %w", cfg.Key(), err)
	}

	m.PublishMetrics(ro.Registry())
	if e != nil {
		e.PublishMetrics(ro.Registry())
	}
	res := ts.Collect(m.ICount, m.Overhead, ro)
	run.End()
	if ro != nil {
		res.Registry = ro.Metrics
		res.Spans = ro.Spans
	}
	return res, nil
}
