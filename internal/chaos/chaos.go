// Package chaos is a deterministic, seed-driven fault injector for the
// experiment scheduler.  It attaches to the supervision seams exposed
// by internal/study (study.Hooks) and to the vm watchdog, and injects
// faults at three layers:
//
//   - vm: trap the live guest at a fixed instruction count (TrapAt);
//   - trace I/O: fail the recording's trace writer after a byte budget
//     (RecordFailures/RecordFailAfter), slow it down (WriteDelay), or
//     truncate the trace a replay reads (ReplayTruncate);
//   - disk faults: silently corrupt the recorded trace bytes — seeded
//     bit flips (RecordFlipOffsets, BitFlips), a torn tail where writes
//     past an offset report success but never land (RecordTornTail), or
//     a disk that fills mid-write (RecordENOSPCAfter) — the integrity
//     seam: recording succeeds, and detection must happen at replay;
//   - scheduler: panic inside a worker (PanicConfigs), hang until the
//     run deadline (HangConfigs), or fail leading attempts transiently
//     (FailConfigs and the seed-driven FailRate).
//
// Every decision is a pure function of the Plan — set membership,
// countdown counters consumed in retry order, or an FNV hash of
// (Seed, scope, attempt) — never of wall-clock time or scheduling
// order, so a chaos run is exactly reproducible: same plan, same
// faults, same survivors.  The chaos test suite at the repository root
// (TestChaos*) is the consumer, asserting that sweeps degrade
// gracefully under every one of these faults.
//
// The dependency points one way: chaos imports study, study never
// imports chaos.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sync/atomic"
	"syscall"
	"time"

	"tquad/internal/study"
	"tquad/internal/vm"
)

// ErrInjected is the root of every chaos-injected failure; tests match
// it with errors.Is to distinguish injected faults from real ones.
var ErrInjected = errors.New("chaos: injected fault")

// Plan declares which faults an Injector delivers.  The zero value
// injects nothing.
type Plan struct {
	// Seed drives the hash behind FailRate decisions.  Two injectors
	// with equal plans (including Seed) make identical decisions.
	Seed int64

	// PanicConfigs lists run keys whose worker panics before executing
	// (scheduler panic-isolation seam).
	PanicConfigs []string
	// HangConfigs lists run keys whose worker blocks until its context
	// is done (per-run timeout seam).
	HangConfigs []string
	// FailConfigs maps run keys to how many leading attempts fail with
	// a transient error (retry-then-succeed seam).
	FailConfigs map[string]int
	// FailRate injects a transient failure into any (run key, attempt)
	// whose seeded hash falls below the rate; 0 disables, 1 fails every
	// attempt.  Decisions are order-independent.
	FailRate float64

	// TrapAt makes every live guest trap once it reaches this
	// instruction count (vm watchdog seam); 0 disables.
	TrapAt uint64

	// RecordFailures is how many leading record attempts get a trace
	// writer that fails after RecordFailAfter bytes (trace I/O seam).
	RecordFailures int
	// RecordFailAfter is the failing writer's byte budget.
	RecordFailAfter int64
	// WriteDelay slows every trace write by this much (slow I/O seam).
	WriteDelay time.Duration
	// ReplayTruncate caps the trace file every replay pass reads at this
	// many bytes, simulating a torn trace file; 0 disables.
	ReplayTruncate int64

	// RecordFlipOffsets lists trace-stream byte offsets whose low bits
	// are flipped on the way to disk — silent corruption the recording
	// cannot see (use BitFlips for seeded offsets).
	RecordFlipOffsets []int64
	// RecordTornTail, when > 0, makes every trace write past this stream
	// offset report success without landing: the crash-consistency shape
	// of a kill between write-back and fsync.
	RecordTornTail int64
	// RecordENOSPCAfter, when > 0, fails trace writes past this stream
	// offset with ENOSPC — the disk filled mid-recording.
	RecordENOSPCAfter int64
	// RecordCorruptions caps how many leading record attempts get the
	// disk faults above; 0 corrupts every attempt.
	RecordCorruptions int
}

// Injector delivers a Plan through study.Hooks.  Safe for concurrent
// use by scheduler workers.
type Injector struct {
	plan        Plan
	panics      map[string]bool
	hangs       map[string]bool
	recordFails atomic.Int64
	corruptions atomic.Int64
}

// New builds an injector for the plan.
func New(plan Plan) *Injector {
	in := &Injector{
		plan:   plan,
		panics: make(map[string]bool, len(plan.PanicConfigs)),
		hangs:  make(map[string]bool, len(plan.HangConfigs)),
	}
	for _, k := range plan.PanicConfigs {
		in.panics[k] = true
	}
	for _, k := range plan.HangConfigs {
		in.hangs[k] = true
	}
	in.recordFails.Store(int64(plan.RecordFailures))
	in.corruptions.Store(int64(plan.RecordCorruptions))
	return in
}

// Hooks returns the scheduler hook set delivering this injector's plan.
func (in *Injector) Hooks() study.Hooks {
	return study.Hooks{
		BeforeRun:    in.beforeRun,
		BeforeRecord: in.beforeRecord,
		RecordWriter: in.recordWriter,
		ReplayReader: in.replayReader,
		Machine:      in.machine,
	}
}

func (in *Injector) beforeRun(ctx context.Context, cfg study.RunConfig, attempt int) error {
	key := cfg.Key()
	if in.panics[key] {
		panic(fmt.Sprintf("chaos: injected panic in %s", key))
	}
	if in.hangs[key] {
		// A hung worker: block until the supervisor gives up on us.
		<-ctx.Done()
		return ctx.Err()
	}
	if attempt < in.plan.FailConfigs[key] {
		return study.MarkTransient(fmt.Errorf("%w: %s attempt %d", ErrInjected, key, attempt))
	}
	if in.WouldFail(key, attempt) {
		return study.MarkTransient(fmt.Errorf("%w: seeded failure %s attempt %d", ErrInjected, key, attempt))
	}
	return nil
}

func (in *Injector) beforeRecord(ctx context.Context, attempt int) error {
	const key = "record/guest" // the recording's key in PanicConfigs and HangConfigs
	if in.panics[key] {
		panic(fmt.Sprintf("chaos: injected panic in %s", key))
	}
	if in.hangs[key] {
		<-ctx.Done()
		return ctx.Err()
	}
	return nil
}

// WouldFail reports the seeded FailRate decision for one attempt: a
// pure hash of (Seed, key, attempt), independent of scheduling order.
func (in *Injector) WouldFail(key string, attempt int) bool {
	if in.plan.FailRate <= 0 {
		return false
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", in.plan.Seed, key, attempt)
	roll := float64(h.Sum64()>>11) / float64(uint64(1)<<53)
	return roll < in.plan.FailRate
}

func (in *Injector) machine(ctx context.Context, m *vm.Machine) {
	if in.plan.TrapAt == 0 {
		return
	}
	at := in.plan.TrapAt
	m.Watchdog = func(m *vm.Machine) error {
		if m.ICount >= at {
			return fmt.Errorf("%w: guest trapped at icount %d", ErrInjected, m.ICount)
		}
		return nil
	}
}

func (in *Injector) recordWriter(w io.Writer) io.Writer {
	if in.plan.WriteDelay > 0 {
		w = &slowWriter{w: w, delay: in.plan.WriteDelay}
	}
	if in.corruptsRecord() {
		w = &corruptWriter{
			w:           w,
			flips:       in.plan.RecordFlipOffsets,
			torn:        in.plan.RecordTornTail,
			enospcAfter: in.plan.RecordENOSPCAfter,
		}
	}
	if in.recordFails.Add(-1) >= 0 {
		// This attempt is in the failure budget: its writer dies after
		// RecordFailAfter bytes, leaving a truncated temp trace behind
		// for the scheduler to clean up.
		return &flakyWriter{w: w, remaining: in.plan.RecordFailAfter}
	}
	return w
}

func (in *Injector) replayReader(ra io.ReaderAt, size int64) (io.ReaderAt, int64) {
	if in.plan.ReplayTruncate > 0 && size > in.plan.ReplayTruncate {
		size = in.plan.ReplayTruncate
	}
	return ra, size
}

// corruptsRecord decides whether this record attempt's writer gets the
// plan's disk faults: no fault fields means never, a zero budget means
// every attempt, a positive budget is consumed in attempt order.
func (in *Injector) corruptsRecord() bool {
	p := in.plan
	if len(p.RecordFlipOffsets) == 0 && p.RecordTornTail == 0 && p.RecordENOSPCAfter == 0 {
		return false
	}
	if p.RecordCorruptions <= 0 {
		return true
	}
	return in.corruptions.Add(-1) >= 0
}

// BitFlips derives n deterministic flip offsets in [0, size) from the
// seed — the corruption analogue of WouldFail: two plans with equal
// (seed, n, size) damage identical bytes.
func BitFlips(seed int64, n int, size int64) []int64 {
	if n <= 0 || size <= 0 {
		return nil
	}
	out := make([]int64, 0, n)
	h := fnv.New64a()
	for i := 0; len(out) < n; i++ {
		h.Reset()
		fmt.Fprintf(h, "%d/flip/%d", seed, i)
		out = append(out, int64(h.Sum64()%uint64(size)))
	}
	return out
}

// corruptWriter damages the trace stream on the way to disk while the
// recording believes everything succeeded (except ENOSPC, which is an
// honest write error).  It tracks the absolute stream offset so faults
// land at plan-fixed byte positions regardless of write sizing.
type corruptWriter struct {
	w           io.Writer
	off         int64
	flips       []int64
	torn        int64
	enospcAfter int64
}

func (cw *corruptWriter) Write(p []byte) (int, error) {
	if cw.enospcAfter > 0 && cw.off+int64(len(p)) > cw.enospcAfter {
		// The disk fills mid-write: the prefix lands, the errno is real.
		keep := cw.enospcAfter - cw.off
		if keep < 0 {
			keep = 0
		}
		n := 0
		if keep > 0 {
			n, _ = cw.w.Write(p[:keep])
		}
		cw.off += int64(n)
		return n, fmt.Errorf("%w: %w", ErrInjected, syscall.ENOSPC)
	}
	buf := p
	for _, f := range cw.flips {
		if f >= cw.off && f < cw.off+int64(len(p)) {
			if &buf[0] == &p[0] {
				buf = append([]byte(nil), p...)
			}
			buf[f-cw.off] ^= 1 << uint(f&7)
		}
	}
	keep := int64(len(buf))
	if cw.torn > 0 {
		// Bytes past the tear report success but never land — the write
		// went to a cache that was lost before write-back.
		if cw.off >= cw.torn {
			keep = 0
		} else if cw.off+keep > cw.torn {
			keep = cw.torn - cw.off
		}
	}
	if keep > 0 {
		if n, err := cw.w.Write(buf[:keep]); err != nil {
			cw.off += int64(n)
			return n, err
		}
	}
	cw.off += int64(len(p))
	return len(p), nil
}

// flakyWriter fails permanently once its byte budget is spent.
type flakyWriter struct {
	w         io.Writer
	remaining int64
	failed    bool
}

func (fw *flakyWriter) Write(p []byte) (int, error) {
	if fw.failed || fw.remaining <= 0 {
		fw.failed = true
		return 0, fmt.Errorf("%w: trace write fault", ErrInjected)
	}
	if int64(len(p)) > fw.remaining {
		n, _ := fw.w.Write(p[:fw.remaining])
		fw.failed = true
		fw.remaining = 0
		return n, fmt.Errorf("%w: trace write fault", ErrInjected)
	}
	fw.remaining -= int64(len(p))
	return fw.w.Write(p)
}

// slowWriter sleeps before every write — a disk with terrible latency.
type slowWriter struct {
	w     io.Writer
	delay time.Duration
}

func (sw *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(sw.delay)
	return sw.w.Write(p)
}
