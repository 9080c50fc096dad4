// Package jobd is the tQUAD analysis daemon: "the paper's workflow as
// a service".  Sweep jobs arrive over HTTP (see server.go), persist in
// an append-only journal (store.go), execute on a bounded worker pool
// through the existing study.Scheduler — with the full supervision
// policy (retries, panic isolation, rerecord-on-corrupt) and per-job
// checkpoint journals — and leave their results in a content-addressed
// artifact store (artifact.go).
//
// Durability contract: every job state transition is journalled and
// fsynced before it is acted on, and all guest work inside a job flows
// through a study.Checkpoint under the job's directory.  Kill the
// daemon at any instant and restart it on the same data directory: the
// journal replays, interrupted jobs re-queue, and their sweeps resume
// from the checkpointed recording with zero guest re-execution —
// producing artifacts byte-identical to an uninterrupted run (the
// chaos suite's kill/resume test is the proof).
package jobd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tquad/internal/obs"
	"tquad/internal/obs/live"
	"tquad/internal/plot"
	"tquad/internal/study"
	"tquad/internal/trace"
	"tquad/internal/wfs"
)

// Daemon-level metric names, exposed on the daemon's /metrics.
const (
	MetricJobsSubmitted = "tquad_jobd_jobs_submitted_total"
	MetricJobsSucceeded = "tquad_jobd_jobs_succeeded_total"
	MetricJobsFailed    = "tquad_jobd_jobs_failed_total"
	MetricJobsCanceled  = "tquad_jobd_jobs_canceled_total"
	MetricJobsResumed   = "tquad_jobd_jobs_resumed_total"
	MetricGuestExecs    = "tquad_jobd_guest_executions_total"
	MetricQueueDepth    = "tquad_jobd_queue_depth"
	MetricJobsRunning   = "tquad_jobd_jobs_running"
)

// Options configures a Daemon.
type Options struct {
	// DataDir roots the journal, per-job checkpoints and artifacts.
	// Required.
	DataDir string
	// Workers bounds concurrently executing jobs (<= 0: 1).
	Workers int
	// SchedJobs is each job's scheduler concurrency (<= 0: GOMAXPROCS).
	SchedJobs int
	// StallWindow configures each job's live.Tracker stall detector
	// (<= 0 disables it).
	StallWindow time.Duration
	// Hooks threads the supervision/fault-injection seams into every
	// job's scheduler (the chaos suite's lever; nil in production).
	Hooks study.Hooks
}

// runningJob is the daemon's handle on one in-flight job.
type runningJob struct {
	ctx        context.Context
	cancel     context.CancelFunc
	tracker    *live.Tracker
	userCancel atomic.Bool // cancel requested via the API, not shutdown
}

// Daemon is a running job daemon.  Create with New, stop with Shutdown
// (graceful drain) or Kill (test-only crash equivalence).
type Daemon struct {
	opts  Options
	store *Store
	art   *ArtifactStore
	reg   *obs.Registry

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []string
	running  map[string]*runningJob
	stopping bool

	draining atomic.Bool // graceful shutdown: leave in-flight jobs "running" in the journal
	killed   atomic.Bool // simulated crash: no journal writes at all on the way down

	guestExecs atomic.Uint64
}

// New opens (or resumes) the data directory and starts the worker pool.
// Jobs journalled as queued or running come back onto the queue in
// submission order.
func New(opts Options) (*Daemon, error) {
	if opts.DataDir == "" {
		return nil, fmt.Errorf("jobd: Options.DataDir is required")
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	store, err := OpenStore(opts.DataDir)
	if err != nil {
		return nil, err
	}
	art, err := openArtifacts(store.Dir() + "/artifacts")
	if err != nil {
		store.Close()
		return nil, err
	}
	d := &Daemon{
		opts:    opts,
		store:   store,
		art:     art,
		reg:     obs.NewRegistry(),
		running: make(map[string]*runningJob),
	}
	d.cond = sync.NewCond(&d.mu)
	d.ctx, d.cancel = context.WithCancel(context.Background())
	for _, j := range store.Jobs() {
		if j.State == StateQueued {
			if j.Resumed {
				d.reg.Counter(MetricJobsResumed).Inc()
			}
			d.queue = append(d.queue, j.ID)
		}
	}
	d.publishGauges()
	for i := 0; i < opts.Workers; i++ {
		d.wg.Add(1)
		go d.worker()
	}
	return d, nil
}

// Registry returns the daemon's metrics registry (the /metrics surface).
func (d *Daemon) Registry() *obs.Registry { return d.reg }

// GuestExecutions returns how many guest executions this daemon process
// has performed across all jobs — the kill/resume durability test's
// zero-re-execution assertion reads it on the restarted daemon.
func (d *Daemon) GuestExecutions() uint64 { return d.guestExecs.Load() }

// Job returns a snapshot of one job.
func (d *Daemon) Job(id string) (Job, bool) { return d.store.Get(id) }

// Jobs returns snapshots of all jobs in submission order.
func (d *Daemon) Jobs() []Job { return d.store.Jobs() }

// Tracker returns the live progress tracker of a running job (nil when
// the job is not currently executing).
func (d *Daemon) Tracker(id string) *live.Tracker {
	d.mu.Lock()
	defer d.mu.Unlock()
	if rj := d.running[id]; rj != nil {
		return rj.tracker
	}
	return nil
}

// Submit validates, journals and enqueues a new job.
func (d *Daemon) Submit(spec JobSpec) (Job, error) {
	if err := spec.normalize(); err != nil {
		return Job{}, err
	}
	j, err := d.store.Submit(spec)
	if err != nil {
		return Job{}, err
	}
	d.reg.Counter(MetricJobsSubmitted).Inc()
	d.enqueue(j.ID)
	return j, nil
}

// Cancel stops a queued or running job.  Queued jobs cancel
// immediately; running jobs stop at the guest's next basic block.
func (d *Daemon) Cancel(id string) error {
	d.mu.Lock()
	if rj := d.running[id]; rj != nil {
		rj.userCancel.Store(true)
		rj.cancel()
		d.mu.Unlock()
		return nil
	}
	for i, qid := range d.queue {
		if qid == id {
			d.queue = append(d.queue[:i], d.queue[i+1:]...)
			d.mu.Unlock()
			d.reg.Counter(MetricJobsCanceled).Inc()
			d.publishGauges()
			return d.store.markCanceled(id)
		}
	}
	d.mu.Unlock()
	j, ok := d.store.Get(id)
	if !ok {
		return fmt.Errorf("jobd: no such job %s", id)
	}
	return fmt.Errorf("jobd: job %s is %s; nothing to cancel", id, j.State)
}

// Retry re-queues a failed or canceled job.  Its checkpoint directory
// is kept, so completed guest work is not repeated.
func (d *Daemon) Retry(id string) error {
	j, ok := d.store.Get(id)
	if !ok {
		return fmt.Errorf("jobd: no such job %s", id)
	}
	if j.State != StateFailed && j.State != StateCanceled {
		return fmt.Errorf("jobd: job %s is %s; only failed or canceled jobs retry", id, j.State)
	}
	if err := d.store.markRetry(id); err != nil {
		return err
	}
	d.enqueue(id)
	return nil
}

// Shutdown drains the daemon gracefully: in-flight guests stop at
// their next basic block (their completed work is already
// checkpointed), workers exit, the shutdown is journalled, and the
// store closes.  Interrupted jobs stay journalled as running, so the
// next boot re-queues and resumes them.
func (d *Daemon) Shutdown() error {
	d.draining.Store(true)
	d.stop()
	err := d.store.markShutdown()
	if cerr := d.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// Kill is the chaos suite's SIGKILL stand-in: it tears the daemon down
// without journalling anything — not the in-flight jobs' outcomes, not
// a shutdown record — leaving the data directory exactly as a killed
// process would.  (An actual SIGKILL needs a separate process; Kill
// gives the in-process tests the same on-disk end state.)
func (d *Daemon) Kill() {
	d.killed.Store(true)
	d.stop()
	d.store.Close()
}

// stop cancels all work and joins the workers.
func (d *Daemon) stop() {
	d.mu.Lock()
	d.stopping = true
	for _, rj := range d.running {
		rj.cancel()
	}
	d.mu.Unlock()
	d.cancel()
	d.cond.Broadcast()
	d.wg.Wait()
}

// enqueue appends a job and wakes one worker.
func (d *Daemon) enqueue(id string) {
	d.mu.Lock()
	d.queue = append(d.queue, id)
	d.mu.Unlock()
	d.publishGauges()
	d.cond.Signal()
}

// next blocks until a job is available or the daemon is stopping
// (empty return).  The claim is atomic: the returned job is already
// registered in d.running, so Cancel never loses a job in the window
// between dequeue and execution.
func (d *Daemon) next() (string, *runningJob) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.stopping {
			return "", nil
		}
		if len(d.queue) > 0 {
			id := d.queue[0]
			d.queue = d.queue[1:]
			ctx, cancel := context.WithCancel(d.ctx)
			rj := &runningJob{ctx: ctx, cancel: cancel}
			rj.tracker = live.NewTracker(live.TrackerOptions{
				Registry:    obs.NewRegistry(),
				StallWindow: d.opts.StallWindow,
			})
			d.running[id] = rj
			return id, rj
		}
		d.cond.Wait()
	}
}

// worker is one pool goroutine: claim, run, repeat.
func (d *Daemon) worker() {
	defer d.wg.Done()
	for {
		id, rj := d.next()
		if id == "" {
			return
		}
		d.runJob(id, rj)
	}
}

// runJob executes one claimed job end to end and journals its outcome —
// unless the daemon is going down: a graceful drain leaves the job
// journalled as running (the resume contract), and a Kill writes
// nothing at all (the crash contract).
func (d *Daemon) runJob(id string, rj *runningJob) {
	ctx := rj.ctx
	defer func() {
		rj.cancel()
		rj.tracker.Close()
		d.release(id, rj)
		d.publishGauges()
	}()

	if err := d.store.markStart(id); err != nil {
		return // store closed: daemon going down before the job started
	}
	d.publishGauges()
	job, ok := d.store.Get(id)
	if !ok {
		return
	}
	o := obs.NewObserver()
	arts, guest, err := d.executeJob(ctx, job, rj.tracker, o)
	d.guestExecs.Add(guest)
	d.reg.Counter(MetricGuestExecs).Add(guest)
	if d.killed.Load() {
		// Crash semantics: this transition dies with the process.
		return
	}
	// The job's scheduler counters (retries, rerecords, failed runs,
	// trace CRC checks) and run metrics outlive it in the daemon
	// registry; their label values are bounded, so /metrics cannot grow.
	d.reg.Merge(o.Registry())

	// Leave the running set before the outcome is journalled: once a job
	// reads as terminal, Cancel must refuse it and Retry may re-queue it.
	d.release(id, rj)
	switch {
	case err == nil:
		d.store.markSucceeded(id, arts, guest)
		d.reg.Counter(MetricJobsSucceeded).Inc()
	case rj.userCancel.Load():
		d.store.markCanceled(id)
		d.reg.Counter(MetricJobsCanceled).Inc()
	case d.draining.Load() && isCancel(err):
		// Graceful shutdown interrupted the job: leave it journalled as
		// running so the next boot re-queues and resumes it.
		return
	default:
		d.store.markFailed(id, err.Error())
		d.reg.Counter(MetricJobsFailed).Inc()
	}
}

// release takes a job out of the running set, unless a later claim of
// the same id (a retry) has replaced it there.
func (d *Daemon) release(id string, rj *runningJob) {
	d.mu.Lock()
	if d.running[id] == rj {
		delete(d.running, id)
	}
	d.mu.Unlock()
}

// isCancel reports whether err is rooted in context cancellation.
func isCancel(err error) bool {
	return study.IsCancelled(err) || errors.Is(err, context.Canceled)
}

// publishGauges refreshes the queue/running gauges.
func (d *Daemon) publishGauges() {
	d.mu.Lock()
	q, r := len(d.queue), len(d.running)
	d.mu.Unlock()
	d.reg.Gauge(MetricQueueDepth).Set(float64(q))
	d.reg.Gauge(MetricJobsRunning).Set(float64(r))
}

// executeJob runs one job's whole sweep through a fresh scheduler,
// observed by o, with the job's checkpoint journal attached, then
// renders and stores its artifacts.  Returns the artifact list and how
// many guest executions the sweep performed (0 when fully resumed from
// checkpoint).
func (d *Daemon) executeJob(ctx context.Context, job Job, tracker *live.Tracker, o *obs.Observer) ([]Artifact, uint64, error) {
	spec := job.Spec
	cfg, err := wfs.ConfigByName(spec.Config)
	if err != nil {
		return nil, 0, err
	}
	s, err := study.NewObserved(cfg, o)
	if err != nil {
		return nil, 0, err
	}
	s.W.Interpret = spec.Engine == "step"
	sch := study.NewScheduler(s, d.opts.SchedJobs)
	defer sch.Close()
	sch.SetContext(ctx)
	sch.SetRetries(spec.Retries)
	sch.SetMaxInstr(spec.MaxICount)
	sch.SetEvents(tracker)
	sch.SetHooks(d.opts.Hooks)
	ck, err := study.OpenCheckpoint(d.store.CheckpointDir(job.ID))
	if err != nil {
		return nil, sch.GuestExecutions(), err
	}
	defer ck.Close()
	sch.SetCheckpoint(ck)

	// The same sweep grid as cmd/tquad's (-slice 0 sizes for ~64 slices
	// off the native count, which costs a replay pass of its own).
	resolved, pend, err := sch.SubmitSweep(spec.Slices, spec.Caches, spec.includeStack(), spec.IgnoreLibs)
	if err != nil {
		return nil, sch.GuestExecutions(), err
	}
	// The Table I–IV report rides the same recorded execution: four more
	// replays plus one fine-sliced profile, queued with the sweep's runs
	// for the one replay pass Flush starts, no extra guest work.
	var tables []*study.Pending
	if !spec.SkipTables {
		tables = []*study.Pending{
			sch.Submit(study.RunConfig{Kind: study.RunFlat}),
			sch.Submit(study.RunConfig{Kind: study.RunQUAD, IncludeStack: false}),
			sch.Submit(study.RunConfig{Kind: study.RunQUAD, IncludeStack: true}),
			sch.Submit(study.RunConfig{Kind: study.RunInstrFlat}),
			sch.Submit(study.RunConfig{Kind: study.RunTQUAD, SliceInterval: 5000, IncludeStack: true}),
		}
	}

	if errs := sch.Flush(); len(errs) > 0 {
		guest := sch.GuestExecutions()
		if cerr := ctx.Err(); cerr != nil {
			return nil, guest, fmt.Errorf("jobd: job %s: %w", job.ID, cerr)
		}
		return nil, guest, fmt.Errorf("jobd: job %s: %d of %d runs failed: %w",
			job.ID, len(errs), len(pend), errors.Join(errs...))
	}

	results, err := study.WaitAll(pend...)
	if err != nil {
		return nil, sch.GuestExecutions(), err
	}

	var arts []Artifact
	add := func(a Artifact, err error) error {
		if err != nil {
			return err
		}
		arts = append(arts, a)
		return nil
	}

	// report.txt: the sweep report, byte-identical to cmd/tquad's stdout
	// for the same flags (shared renderer).
	opt := spec.renderOptions()
	var buf bytes.Buffer
	study.WriteSweepReport(&buf, results, resolved, len(spec.Caches) > 1, opt)
	if err := add(d.art.PutBytes("report.txt", buf.Bytes())); err != nil {
		return nil, sch.GuestExecutions(), err
	}

	// Per-run profile JSON and bandwidth heatmap SVG, plus the
	// completed-runs bar chart the dashboard embeds.
	var bars []plot.Bar
	for _, res := range results {
		bars = append(bars, plot.Bar{Label: res.Key, Value: study.EffectiveBandwidth(res.Temporal)})
		frag := safeName(res.Key)
		svg := study.Heatmap(res.Temporal, opt)
		if err := add(d.art.PutBytes("heatmap-"+frag+".svg", []byte(svg))); err != nil {
			return nil, sch.GuestExecutions(), err
		}
		buf.Reset()
		if err := trace.SaveTemporal(&buf, res.Temporal); err != nil {
			return nil, sch.GuestExecutions(), err
		}
		if err := add(d.art.PutBytes("profile-"+frag+".json", buf.Bytes())); err != nil {
			return nil, sch.GuestExecutions(), err
		}
	}
	chartSVG := plot.Bars("effective bandwidth of completed runs", "B/instr", bars)
	if err := add(d.art.PutBytes("chart.svg", []byte(chartSVG))); err != nil {
		return nil, sch.GuestExecutions(), err
	}

	if !spec.SkipTables {
		tbl, err := renderTables(s, tables)
		if err != nil {
			return nil, sch.GuestExecutions(), err
		}
		if err := add(d.art.PutBytes("tables.txt", tbl)); err != nil {
			return nil, sch.GuestExecutions(), err
		}
	}

	// The recorded guest event trace, straight from the checkpoint
	// journal (inspect with tqdump -etrace [-json]).
	if path, ok := ck.PersistedTrace(); ok {
		if err := add(d.art.PutFile("trace.etrace", path)); err != nil {
			return nil, sch.GuestExecutions(), err
		}
	}
	return arts, sch.GuestExecutions(), nil
}

// renderTables renders the Table I–IV report artifact from the
// already-completed flat, QUAD exclusive and inclusive,
// instrumented-flat and phase runs, with the writers the study
// subcommand prints them with.
func renderTables(s *study.Study, tables []*study.Pending) ([]byte, error) {
	res, err := study.WaitAll(tables...)
	if err != nil {
		return nil, err
	}
	flat, quadEx, quadIn, instr, phasesRes := res[0], res[1], res[2], res[3], res[4]
	var b bytes.Buffer
	study.WriteTablesIToIII(&b, flat.Flat, instr.Flat, quadEx.Quad, quadIn.Quad)
	study.WriteTableIV(&b, s.PhasesFromProfile(phasesRes.Temporal), phasesRes.Temporal.NumSlices)
	return b.Bytes(), nil
}
