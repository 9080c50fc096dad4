// Run supervision for the experiment scheduler: the error taxonomy
// (cancelled / transient / permanent), worker panic recovery, and the
// deterministic retry policy.  The paper's evaluation is a long
// multi-configuration sweep; this file is what lets a single hung
// guest, crashed worker or flaky host write degrade into one reported
// per-config failure instead of losing the whole run.
//
// Error taxonomy.  Every run failure falls in exactly one class:
//
//   - cancelled: the host decided to stop (context cancellation, sweep
//     deadline, per-run timeout).  Never retried — the sweep is either
//     shutting down or the run is considered hung, and the guest is
//     deterministic so a hang would simply repeat.
//   - transient: a host-side failure outside the guest (temp-file
//     creation, trace-write I/O) or anything explicitly marked with
//     MarkTransient (the chaos injector's lever).  Retried up to the
//     scheduler's budget with capped exponential backoff whose jitter
//     is seeded from the run key, so retry schedules are reproducible.
//   - permanent: everything else — guest traps, non-zero exit codes,
//     fuel exhaustion, worker panics.  The guest is deterministic, so
//     re-executing would reproduce the failure; it is reported once.
//     Host I/O failures that describe a stable host condition (ENOSPC,
//     EROFS) are permanent too: see markHostIO.
//
// One failure crosses classes: a recorded trace that fails integrity
// verification at replay time (etrace.CorruptError).  The guest run was
// fine — the bytes rotted between recording and replay — so the
// scheduler re-executes the guest once (Scheduler.rerecord) instead of
// failing every configuration in the group.
package study

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"syscall"
	"time"

	"tquad/internal/obs"
	"tquad/internal/vm"
)

// PanicError is a worker panic recovered by the scheduler, converted
// into a per-configuration failure.  The recovered value and the
// worker's stack ride along so the crash is diagnosable from the sweep
// report alone.
type PanicError struct {
	Key   string // the run (or recording) the worker was executing
	Value any    // the recovered panic value
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("study: run %s: worker panic: %v\n%s", e.Key, e.Value, e.Stack)
}

// TransientError marks a failure worth retrying.  Unwrap exposes the
// cause.
type TransientError struct {
	Err error
}

func (e *TransientError) Error() string { return e.Err.Error() }
func (e *TransientError) Unwrap() error { return e.Err }

// MarkTransient wraps err so the scheduler's retry policy applies to it.
// A nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Err: err}
}

// markHostIO classifies a host-I/O failure at the trace-write seam.
// Most are transient (a glitchy disk write succeeds on retry), but a
// full or read-only filesystem is a stable property of the host:
// retrying burns the whole backoff budget to reproduce the same errno,
// and a sweep of hundreds of configurations should fail fast instead.
// Cancellation is left to IsTransient's existing precedence rules.
func markHostIO(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EROFS) {
		return err // permanent: the host condition outlives any retry
	}
	return MarkTransient(err)
}

// IsTransient reports whether err is classified transient (retryable).
// Cancellation always wins over a transient mark.
func IsTransient(err error) bool {
	if err == nil || IsCancelled(err) {
		return false
	}
	var te *TransientError
	return errors.As(err, &te)
}

// IsCancelled reports whether err is (or wraps) a host-side
// cancellation: a vm.CancelError, context.Canceled, or
// context.DeadlineExceeded.
func IsCancelled(err error) bool {
	return vm.IsCancel(err) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// Hooks are the scheduler's supervision seams: optional callbacks
// invoked at well-defined points of a run's lifecycle.  Production
// sweeps leave them nil; the deterministic fault injector
// (internal/chaos) attaches here, and the chaos suite is the contract
// that sweeps degrade gracefully whatever these do — including panic.
type Hooks struct {
	// BeforeRun fires on the run's own goroutine, under its attempt
	// context, before each attempt executes or replays (attempt counts
	// from 0); no worker slot is held while it runs.  Returning an error
	// fails the attempt; panicking exercises panic isolation.
	BeforeRun func(ctx context.Context, cfg RunConfig, attempt int) error
	// BeforeRecord fires before a guest recording attempt.
	BeforeRecord func(ctx context.Context, attempt int) error
	// RecordWriter wraps the recording's trace writer (I/O fault seam).
	RecordWriter func(w io.Writer) io.Writer
	// ReplayReader wraps the trace file a replay pass reads, given and
	// returning the bytes and their size (I/O fault seam).
	ReplayReader func(ra io.ReaderAt, size int64) (io.ReaderAt, int64)
	// Machine fires on every freshly configured live machine before it
	// runs; ctx is the attempt's context (vm fault seam — e.g. install
	// a vm.Machine.Watchdog that traps at instruction N).
	Machine func(ctx context.Context, m *vm.Machine)
}

// runOptions carries the supervision state of one run attempt into the
// study's execute/record/replay paths.
type runOptions struct {
	ctx      context.Context
	maxInstr uint64
	hooks    Hooks
	// beat, when non-nil, receives periodic guest progress (instructions
	// executed so far), driven from the vm's block-boundary watchdog; nil
	// — the default — leaves the hot path untouched.  (Replays beat once
	// per applied chunk through groupRun.Beat.)
	beat func(ic uint64)
}

// policy is the scheduler's supervision settings.  The scheduler holds
// one and each submitted run (and each recording) copies it, so a run is
// governed by the policy in force when it was submitted: reconfiguring
// the scheduler between submissions is safe and never races with
// in-flight work.
type policy struct {
	ctx        context.Context
	retries    int
	base, cap  time.Duration
	runTimeout time.Duration
	maxInstr   uint64
	hooks      Hooks
	ckpt       *Checkpoint
	source     string // SetTraceSource's adopted trace
	salvage    bool
	sink       string // SetTraceSink's path
	events     obs.EventSink
	beatEvery  uint64
}

// attemptContext derives one run attempt's context: the sweep context,
// bounded by the per-run timeout when one is set.
func (pol policy) attemptContext() (context.Context, context.CancelFunc) {
	if pol.runTimeout > 0 {
		return context.WithTimeout(pol.ctx, pol.runTimeout)
	}
	return pol.ctx, func() {}
}

// emit publishes one lifecycle event when an event sink is attached.
// With no sink (the default) this is a nil-interface check and nothing
// else — the supervision paths stay event-free.
func (pol policy) emit(ev obs.Event) {
	if pol.events == nil {
		return
	}
	pol.events.Publish(ev)
}

// beatFunc builds the heartbeat callback for one run: it throttles raw
// progress samples to one event per beatEvery guest instructions and
// publishes them with the run's identity and budget attached.  Returns
// nil — meaning "leave the hot path alone" — when no sink is attached.
// The returned closure is driven from a single goroutine (the run's
// execution loop), so the throttle needs no synchronisation.
func (pol policy) beatFunc(key string, budget uint64) func(ic uint64) {
	if pol.events == nil {
		return nil
	}
	stride := pol.beatEvery
	if stride == 0 {
		stride = DefaultHeartbeatStride
	}
	var last uint64
	first := true
	return func(ic uint64) {
		if !first && ic-last < stride {
			return
		}
		first = false
		last = ic
		pol.events.Publish(obs.Event{
			Type: obs.EventHeartbeat, Key: key,
			ICount: ic, Budget: budget,
		})
	}
}

// DefaultHeartbeatStride is how many guest instructions elapse between
// heartbeat events when the scheduler's stride is unset (0).  At
// the vm's typical throughput this is several beats per second — dense
// enough for live rate/ETA display, sparse enough to be free.
const DefaultHeartbeatStride = 1 << 20

// backoffSchedule precomputes the retry sleeps for a run key: capped
// exponential backoff with jitter drawn from a PRNG seeded by the key,
// so two sweeps over the same configuration space retry on identical
// schedules.
func backoffSchedule(key string, retries int, base, max time.Duration) []time.Duration {
	if retries <= 0 {
		return nil
	}
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max < base {
		max = base
	}
	h := fnv.New64a()
	io.WriteString(h, key)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	out := make([]time.Duration, retries)
	d := base
	for i := range out {
		if d > max {
			d = max
		}
		// Equal-jitter: half fixed, half uniform — bounded below so
		// retries are never immediate, bounded above by the cap.
		out[i] = d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
		d *= 2
	}
	return out
}

// sleepCtx sleeps for d unless the context ends first; it reports
// whether the full sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
