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
// which are lock-protected.  The Study's serial methods and their
// caches are NOT used by scheduler runs.
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
	Kind            RunKind
	SliceInterval   uint64 // tQUAD only
	IncludeStack    bool   // QUAD and tQUAD
	ExcludeLibs     bool   // tQUAD only
	TracePrefetches bool   // tQUAD only
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
		return fmt.Sprintf("quad/stack=%s", stackWord(c.IncludeStack))
	default:
		key := fmt.Sprintf("tquad/slice=%d/stack=%s/libs=%s/prefetch=%s",
			c.SliceInterval, stackWord(c.IncludeStack),
			word(c.ExcludeLibs, "main", "all"), word(c.TracePrefetches, "traced", "fast"))
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

	// Registry and Spans hold the run's private observability, recorded
	// into per-run sinks so concurrent runs never contend; Scheduler.Flush
	// merges them into the study's observer.  Nil when observability is
	// disabled.
	Registry *obs.Registry
	Spans    []obs.SpanRecord
}

// Pending is a handle to a submitted (possibly shared) run.
type Pending struct {
	key  string
	done chan struct{}
	res  *RunResult
	err  error
}

// Wait blocks until the run completes and returns its result.  Multiple
// goroutines may Wait on the same Pending.
func (p *Pending) Wait() (*RunResult, error) {
	<-p.done
	return p.res, p.err
}

// Scheduler executes run configurations on a bounded worker pool with
// config-keyed memoisation.  Safe for concurrent use.
type Scheduler struct {
	study *Study
	jobs  int
	sem   chan struct{}

	// replay selects record-once/replay-many execution (the default):
	// one guest execution per execution-equivalence group, recorded as
	// an event trace, then one cheap replay per configuration.  Disable
	// with SetReplay(false) to execute every configuration live.
	replay     bool
	guestExecs atomic.Uint64

	// replayJobs is the decode worker count handed to replay passes
	// (etrace.ParallelOptions.Jobs: 0 means GOMAXPROCS, 1 decodes inline).
	// decodePasses counts how many times a trace was decoded to serve
	// replays — the replay analogue of GuestExecutions: a sweep of N
	// configurations over one recording should cost one pass, not N.
	replayJobs   int
	decodePasses atomic.Uint64

	// Supervision policy (see supervise.go).  Configured before the
	// first Submit; defaults are a background context, no retries, no
	// per-run timeout, and the wfs instruction budget.
	ctx         context.Context
	retries     int
	backoffBase time.Duration
	backoffCap  time.Duration
	runTimeout  time.Duration
	maxInstr    uint64
	hooks       Hooks
	ckpt        *Checkpoint
	sup         obs.Supervision
	events      obs.EventSink
	beatEvery   uint64

	mu        sync.Mutex
	memo      map[string]*Pending
	recs      map[string]*recording // execution-equivalence key -> recording
	retired   []*recording          // corrupt recordings replaced by rerecord
	merged    map[string]bool       // keys already folded into the study observer
	recMerged map[string]bool       // recordings already folded in
}

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
		study:       s,
		jobs:        jobs,
		sem:         make(chan struct{}, jobs),
		replay:      true,
		ctx:         context.Background(),
		backoffBase: 100 * time.Millisecond,
		backoffCap:  5 * time.Second,
		maxInstr:    wfs.MaxInstr,
		sup:         obs.SupervisionCounters(reg),
		memo:        make(map[string]*Pending),
		recs:        make(map[string]*recording),
		merged:      make(map[string]bool),
		recMerged:   make(map[string]bool),
	}
}

// Jobs returns the scheduler's concurrency bound.
func (sc *Scheduler) Jobs() int { return sc.jobs }

// SetContext installs the sweep-wide context: cancelling it abandons
// queued runs, stops in-flight guests at their next block boundary, and
// makes every affected Pending fail with a cancellation error.  Call
// before the first Submit.
func (sc *Scheduler) SetContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	sc.mu.Lock()
	sc.ctx = ctx
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
	sc.retries = n
	sc.mu.Unlock()
}

// SetBackoff overrides the retry backoff's base and cap.  Jitter stays
// deterministic per run key.
func (sc *Scheduler) SetBackoff(base, cap time.Duration) {
	sc.mu.Lock()
	sc.backoffBase, sc.backoffCap = base, cap
	sc.mu.Unlock()
}

// SetRunTimeout bounds each run attempt's wall-clock time (0: none).
// A timed-out attempt fails permanently — the guest is deterministic,
// so a hang would only repeat.
func (sc *Scheduler) SetRunTimeout(d time.Duration) {
	sc.mu.Lock()
	sc.runTimeout = d
	sc.mu.Unlock()
}

// SetMaxInstr overrides the per-run guest instruction budget (values
// <= 0 restore the wfs default).
func (sc *Scheduler) SetMaxInstr(n uint64) {
	sc.mu.Lock()
	if n == 0 {
		n = wfs.MaxInstr
	}
	sc.maxInstr = n
	sc.mu.Unlock()
}

// SetHooks installs the supervision/fault-injection hooks.  Call before
// the first Submit.
func (sc *Scheduler) SetHooks(h Hooks) {
	sc.mu.Lock()
	sc.hooks = h
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
	sc.events = sink
	sc.mu.Unlock()
}

// SetHeartbeatStride sets how many guest instructions elapse between
// heartbeat events (0 restores DefaultHeartbeatStride).  Only meaningful
// with an event sink attached.
func (sc *Scheduler) SetHeartbeatStride(n uint64) {
	sc.mu.Lock()
	sc.beatEvery = n
	sc.mu.Unlock()
}

// SetCheckpoint attaches an open checkpoint journal: completed runs are
// journalled as they finish, finished recordings are persisted into the
// journal directory, and on resume both are served from it — a resumed
// sweep performs zero new guest executions for completed work.  Call
// before the first Submit.  The scheduler does not close the journal.
func (sc *Scheduler) SetCheckpoint(c *Checkpoint) {
	sc.mu.Lock()
	sc.ckpt = c
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
// scheduler has performed — one per recording per drain of its member
// queue, rather than one per submitted configuration.
func (sc *Scheduler) DecodePasses() uint64 { return sc.decodePasses.Load() }

// Close waits for all submitted work and removes the recorded trace
// temp files.  Traces persisted into a checkpoint journal are kept —
// they belong to the journal, not the scheduler.  Call it when the
// sweep is done; the memoised results stay valid.
func (sc *Scheduler) Close() {
	sc.mu.Lock()
	pend := make([]*Pending, 0, len(sc.memo))
	for _, p := range sc.memo {
		pend = append(pend, p)
	}
	recs := make([]*recording, 0, len(sc.recs)+len(sc.retired))
	for _, r := range sc.recs {
		recs = append(recs, r)
	}
	recs = append(recs, sc.retired...)
	sc.mu.Unlock()
	for _, p := range pend {
		<-p.done
	}
	for _, r := range recs {
		<-r.done
		if r.path != "" && !r.persisted {
			os.Remove(r.path)
			r.path = ""
		}
	}
}

// Submit schedules the configuration for execution and returns a handle
// to its (possibly already running or finished) result.  Submissions
// with a configuration seen before — by this scheduler — reuse the
// earlier run.
func (sc *Scheduler) Submit(cfg RunConfig) *Pending {
	key := cfg.Key()
	sc.mu.Lock()
	if p, ok := sc.memo[key]; ok {
		sc.mu.Unlock()
		return p
	}
	p := &Pending{key: key, done: make(chan struct{})}
	sc.memo[key] = p
	m := &member{p: p, cfg: cfg, key: key, pol: sc.policyLocked()}
	var rec *recording
	if sc.replay && cfg.Kind.known() {
		rec = sc.recordingLocked(cfg.ExecKey())
	}
	invalid := sc.replay && !cfg.Kind.known()
	sc.mu.Unlock()
	m.pol.emit(obs.Event{Type: obs.EventQueued, Key: key})
	if invalid {
		// Reject before recording anything: an unknown kind must not cost
		// (or wait for) a guest execution, and its failure must surface
		// for every duplicate submission of the same key.
		p.err = fmt.Errorf("study: unknown run kind %d", cfg.Kind)
		m.pol.emit(obs.Event{Type: obs.EventFailed, Key: key, Err: p.err.Error()})
		close(p.done)
		return p
	}
	sc.dispatch(rec, m)
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

// dispatch queues a member for its next pass: its recording's next replay
// pass, or — with rec nil, replay off — a live run of its own.
func (sc *Scheduler) dispatch(rec *recording, m *member) {
	if rec == nil {
		go sc.runPass(nil, []*member{m})
		return
	}
	sc.mu.Lock()
	rec.batch = append(rec.batch, m)
	start := !rec.batching
	rec.batching = true
	sc.mu.Unlock()
	if start {
		go sc.batchReplays(rec)
	}
}

// batchReplays is the per-recording pass coordinator: once the
// recording lands it drains the member queue in passes — each pass one
// decode of the trace fanned out to every drained member — until no new
// members arrived, then retires.  A later dispatch starts a fresh
// coordinator (the recording is done by then, so its pass starts
// immediately).
func (sc *Scheduler) batchReplays(rec *recording) {
	<-rec.done
	for {
		sc.mu.Lock()
		members := rec.batch
		rec.batch = nil
		if len(members) == 0 {
			rec.batching = false
			sc.mu.Unlock()
			return
		}
		sc.mu.Unlock()
		sc.runPass(rec, members)
	}
}

// runPass runs the members' attempts: with rec nil, a single live
// member's; otherwise those of the members drained from rec's queue.  A
// failed recording fails them all.  Otherwise the pass takes one worker
// slot, begins every member's attempt that is not yet under way, and
// runs the members ready to go — a live guest execution, or one replay
// of the recorded trace with a consumer each.  Every member's outcome is
// then settled on its own.
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
// hangs holds up no other member — and the member joins its recording's
// next pass once the hook lets it through.
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
			sc.dispatch(rec, m)
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
// rec's trace.  A panic outside the replay consumers' analysis routines
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
	sc.mu.Lock()
	jobs := sc.replayJobs
	sc.mu.Unlock()
	sc.decodePasses.Add(1)
	sc.study.replayGroup(ctx, runs, rec.path, jobs, pol.hooks.ReplayReader)
}

// settle applies the one outcome rule to a member after an attempt.
// Success finishes it.  A corrupt recorded trace sends it through
// rerecord and re-queues it on the replacement recording without
// spending an attempt.  A transient failure with attempts left emits a
// retry event and dispatches it again after its backoff.  Anything else
// — permanent errors, panics, cancellation — fails it.
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
		if fresh := sc.rerecord(m.pol, m.cfg.ExecKey(), rec); fresh != nil {
			sc.dispatch(fresh, m)
			return
		}
	case m.attempt < m.pol.retries && IsTransient(err):
		sc.sup.Retries.Inc()
		m.pol.emit(obs.Event{Type: obs.EventRetry, Key: m.key, Attempt: m.attempt + 1, Err: err.Error()})
		delay := backoffSchedule(m.key, m.pol.retries, m.pol.base, m.pol.cap)[m.attempt]
		m.attempt++
		go func() {
			if sleepCtx(m.pol.ctx, delay) {
				sc.dispatch(rec, m)
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
// recording — so the trace is re-recordable, not a config-group
// failure.  It retires the bad recording, invalidates any checkpointed
// copy (a resume must not serve the same rot), and starts one
// replacement guest execution shared by every configuration in the
// group.  Concurrent callers converge on the same replacement; the
// budget is one re-execution per recording chain (a corrupt replacement
// means the fault is systematic, and the second failure surfaces).
// Returns nil when the budget is exhausted.
func (sc *Scheduler) rerecord(pol policy, key string, bad *recording) *recording {
	sc.mu.Lock()
	if bad.replacement != nil {
		fresh := bad.replacement
		sc.mu.Unlock()
		return fresh
	}
	if bad.generation >= 1 {
		sc.mu.Unlock()
		return nil
	}
	fresh := &recording{done: make(chan struct{}), generation: bad.generation + 1}
	bad.replacement = fresh
	sc.retired = append(sc.retired, bad)
	sc.recs[key] = fresh
	sc.mu.Unlock()
	if pol.ckpt != nil {
		pol.ckpt.invalidateTrace(key)
	}
	if sc.study != nil && sc.study.Obs != nil {
		sc.study.Obs.Registry().Counter(obs.MetricSchedRerecords).Inc()
	}
	pol.emit(obs.Event{
		Type: obs.EventRetry, Key: "record/" + key,
		Attempt: fresh.generation + 1, Err: "recorded trace corrupt; re-executing guest",
	})
	go sc.record(pol, key, fresh)
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

// SliceForCount returns the slice interval dividing the run into roughly
// the requested number of slices (scheduler analogue of
// Study.SliceForCount).
func (sc *Scheduler) SliceForCount(slices uint64) (uint64, error) {
	ic, err := sc.NativeICount()
	if err != nil {
		return 0, err
	}
	iv := ic / slices
	if iv == 0 {
		iv = 1
	}
	return iv, nil
}

// Flush waits for every submitted run and folds each run's private
// observability into the study's observer, in config-key order, exactly
// once per run.  It returns the failed runs' errors, also in config-key
// order (empty when the whole sweep succeeded).
func (sc *Scheduler) Flush() []error {
	sc.mu.Lock()
	keys := make([]string, 0, len(sc.memo))
	for key := range sc.memo {
		keys = append(keys, key)
	}
	recKeys := make([]string, 0, len(sc.recs))
	for key := range sc.recs {
		recKeys = append(recKeys, key)
	}
	sc.mu.Unlock()
	sort.Strings(keys)
	sort.Strings(recKeys)

	// Recordings merge first, under a "record/" root, so the trace output
	// shows each guest execution ahead of the replays it feeds.  A failed
	// recording is not reported here: its error reaches every dependent
	// configuration's Pending below.
	for _, key := range recKeys {
		sc.mu.Lock()
		rec := sc.recs[key]
		sc.mu.Unlock()
		<-rec.done
		sc.mu.Lock()
		seen := sc.recMerged[key]
		sc.recMerged[key] = true
		sc.mu.Unlock()
		if seen || rec.err != nil || rec.reg == nil {
			continue
		}
		sc.study.Obs.Registry().Merge(rec.reg)
		sc.study.Obs.Tracer().Adopt("record/"+key, rec.spans)
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
		sc.mu.Lock()
		seen := sc.merged[key]
		sc.merged[key] = true
		sc.mu.Unlock()
		if seen || res.Registry == nil {
			continue
		}
		sc.study.Obs.Registry().Merge(res.Registry)
		sc.study.Obs.Tracer().Adopt(key, res.Spans)
	}
	return errs
}

// Slowdown reproduces the Section V.A sweep through the scheduler: the
// whole configuration grid (slice interval × stack mode, plus one QUAD
// row per stack mode) is submitted up front and executes concurrently up
// to the jobs bound; rows come back in sweep order regardless of run
// completion order, byte-identical to the serial Study.Slowdown.
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

// SlowdownParallel is Study.Slowdown executed on a fresh scheduler with
// the given parallelism.  Output is byte-identical to the serial sweep.
func (s *Study) SlowdownParallel(sliceIntervals []uint64, jobs int) ([]SlowdownRow, error) {
	sch := NewScheduler(s, jobs)
	defer sch.Close()
	return sch.Slowdown(sliceIntervals)
}

// PhasesFromProfile runs Table IV phase detection over an
// already-computed fine-sliced tQUAD profile (the scheduler path, where
// the profile comes from a RunResult).
func (s *Study) PhasesFromProfile(prof *core.Profile) []phase.Phase {
	opts := phase.Options{IncludeStack: true, Kernels: wfs.KernelNames(), Tracer: s.Obs.Tracer()}
	return phase.Detect(prof, opts)
}

// executeConfig performs one run on a fresh machine with per-run
// observability sinks.  It never touches the Study's serial caches, so
// any number of executeConfig calls may be in flight at once.
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
	res := &RunResult{Config: cfg, Key: cfg.Key()}
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
	ts, err := attachTools(host, cfg, ro.Tracer())
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
		return nil, fmt.Errorf("study: run %s: %w", res.Key, err)
	}

	res.ICount, res.Overhead, res.Time = m.ICount, m.Overhead, m.Time()
	m.PublishMetrics(ro.Registry())
	if e != nil {
		e.PublishMetrics(ro.Registry())
	}
	ts.collect(cfg, res, ro)
	run.End()
	if ro != nil {
		res.Registry = ro.Metrics
		res.Spans = ro.Spans.Records()
	}
	return res, nil
}
