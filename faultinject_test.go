// Fault-injection tests: the toolchain must degrade into clean traps —
// never panics, never silent corruption — when fed damaged binaries or
// hostile configurations.  The TestChaos* suite at the bottom drives the
// experiment scheduler through the deterministic fault injector
// (internal/chaos) and asserts graceful degradation: failed
// configurations are reported precisely, survivors render byte-identical
// to a fault-free sweep, interrupted sweeps leak no temp files, and a
// checkpointed sweep resumes with zero repeated guest executions.
package repro_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"tquad/internal/chaos"
	"tquad/internal/core"
	"tquad/internal/gos"
	"tquad/internal/image"
	"tquad/internal/obs"
	"tquad/internal/obs/live"
	"tquad/internal/pin"
	"tquad/internal/study"
	"tquad/internal/vm"
	"tquad/internal/wav"
	"tquad/internal/wfs"
)

// runCorrupted loads the WFS program with one code byte flipped and runs
// it under instrumentation, reporting the outcome.
func runCorrupted(t *testing.T, rng *rand.Rand, w *wfs.Workload) (halted bool, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("corrupted binary caused a panic: %v", r)
		}
	}()
	// Clone and corrupt the main image.
	blob := w.Prog.Main.Marshal()
	img, uerr := image.Unmarshal(blob)
	if uerr != nil {
		t.Fatal(uerr)
	}
	off := rng.Intn(len(img.Code))
	img.Code[off] ^= byte(1 << rng.Intn(8))

	m := vm.New()
	osys := gos.New()
	osys.AddFile(w.Cfg.InputFile, wav.Encode(w.Input))
	m.SetSyscallHandler(osys)
	m.LoadImage(img)
	for _, lib := range w.Prog.Libs {
		m.LoadImage(lib)
	}
	m.Reset(w.Prog.EntryPC)
	e := pin.NewEngine(m)
	core.Attach(e, core.Options{SliceInterval: 10_000, IncludeStack: true})
	err = m.Run(100_000_000)
	return m.Halted, err
}

// TestCorruptedBinaryNeverPanics flips random bits in the code segment:
// every outcome must be a clean halt, a typed trap, or fuel exhaustion.
func TestCorruptedBinaryNeverPanics(t *testing.T) {
	w, err := wfs.NewWorkload(wfs.Small())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31337))
	var halts, traps, fuel int
	for i := 0; i < 30; i++ {
		halted, err := runCorrupted(t, rng, w)
		switch {
		case err == nil && halted:
			halts++
		case errors.Is(err, vm.ErrFuel):
			fuel++
		default:
			var trap *vm.Trap
			if !errors.As(err, &trap) {
				t.Fatalf("trial %d: unexpected outcome halted=%v err=%v", i, halted, err)
			}
			traps++
		}
	}
	t.Logf("30 corrupted runs: %d clean halts, %d traps, %d fuel exhaustions", halts, traps, fuel)
}

// TestTruncatedInputFile: a damaged input WAVE file must surface as a
// guest-level error (non-zero exit), not a crash.
func TestTruncatedInputFile(t *testing.T) {
	w, err := wfs.NewWorkload(wfs.Small())
	if err != nil {
		t.Fatal(err)
	}
	full := wav.Encode(w.Input)
	for _, cut := range []int{0, 10, 44, len(full) / 2} {
		m := vm.New()
		osys := gos.New()
		osys.AddFile(w.Cfg.InputFile, full[:cut])
		m.SetSyscallHandler(osys)
		for _, img := range w.Prog.Images() {
			m.LoadImage(img)
		}
		m.Reset(w.Prog.EntryPC)
		if err := m.Run(wfs.MaxInstr); err != nil {
			t.Fatalf("cut=%d: trap instead of guest error: %v", cut, err)
		}
		if m.ExitCode == 0 {
			t.Errorf("cut=%d: guest reported success on truncated input", cut)
		}
	}
}

// TestMissingInputFile: no input at all.
func TestMissingInputFile(t *testing.T) {
	w, err := wfs.NewWorkload(wfs.Small())
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New()
	m.SetSyscallHandler(gos.New()) // empty file system
	for _, img := range w.Prog.Images() {
		m.LoadImage(img)
	}
	m.Reset(w.Prog.EntryPC)
	if err := m.Run(wfs.MaxInstr); err != nil {
		t.Fatalf("trap instead of guest error: %v", err)
	}
	if m.ExitCode == 0 {
		t.Fatalf("guest reported success without an input file")
	}
}

// TestTinyStackTraps: an undersized stack reservation must produce a
// stack-overflow trap, not memory corruption.
func TestTinyStackTraps(t *testing.T) {
	w, err := wfs.NewWorkload(wfs.Small())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := w.NewMachine()
	m.StackSize = 64 // absurd
	m.Reset(w.Prog.EntryPC)
	err = m.Run(wfs.MaxInstr)
	var trap *vm.Trap
	if !errors.As(err, &trap) {
		t.Fatalf("err = %v, want stack-overflow trap", err)
	}
}

// ---------------------------------------------------------------------
// Scheduler-level chaos suite (run in isolation via `make chaos`).
// ---------------------------------------------------------------------

var chaosWorkload struct {
	once sync.Once
	s    *study.Study
	err  error
}

// chaosStudy builds the WFS workload once and shares it across the
// chaos tests: the workload is immutable after construction, and every
// scheduler instantiates its own machines from it.
func chaosStudy(t *testing.T) *study.Study {
	t.Helper()
	chaosWorkload.once.Do(func() {
		chaosWorkload.s, chaosWorkload.err = study.New(wfs.Small())
	})
	if chaosWorkload.err != nil {
		t.Fatal(chaosWorkload.err)
	}
	return chaosWorkload.s
}

// chaosConfigs is the sweep the chaos scenarios run: one config per run
// kind, a second tQUAD slice width, and a tQUAD run with the memory
// hierarchy attached (so replay faults also hit the memsim path).
func chaosConfigs() []study.RunConfig {
	return []study.RunConfig{
		{Kind: study.RunNative},
		{Kind: study.RunFlat},
		{Kind: study.RunQUAD, IncludeStack: true},
		{Kind: study.RunTQUAD, SliceInterval: 200_000, IncludeStack: true},
		{Kind: study.RunTQUAD, SliceInterval: 800_000},
		{Kind: study.RunTQUAD, SliceInterval: 200_000, IncludeStack: true,
			Cache: "l1=1k/2/64,l2=8k/4/64"},
	}
}

// renderResult digests one run's full observable outcome — counters plus
// the per-kernel profile totals — so two runs can be compared for
// byte-identity.
func renderResult(res *study.RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s icount=%d overhead=%d time=%d\n", res.Key, res.ICount, res.Overhead, res.Time)
	if res.Flat != nil {
		fmt.Fprintf(&b, "  flat rows=%d\n", len(res.Flat.Rows))
	}
	if res.Quad != nil {
		fmt.Fprintf(&b, "  quad bindings=%d\n", len(res.Quad.Bindings))
	}
	if res.Temporal != nil {
		fmt.Fprintf(&b, "  tquad slices=%d instr=%d\n", res.Temporal.NumSlices, res.Temporal.TotalInstr)
		for _, kp := range res.Temporal.Kernels {
			fmt.Fprintf(&b, "  kernel %s span=%d ri=%d re=%d wi=%d we=%d\n",
				kp.Name, kp.ActivitySpan, kp.TotalReadIncl, kp.TotalReadExcl, kp.TotalWriteIncl, kp.TotalWriteExcl)
		}
	}
	if res.Mem != nil {
		fmt.Fprintf(&b, "  memsim %s accesses=%d offchip=%d memcost=%d\n",
			res.Mem.Config.Key(), res.Mem.Accesses, res.Mem.OffChipBytes(), res.Mem.MemCost)
		for _, kp := range res.Mem.Kernels {
			fmt.Fprintf(&b, "  memkernel %s offchip=%d hits0=%d misses0=%d\n",
				kp.Name, kp.OffChip(), kp.Total.Hits[0], kp.Total.Misses[0])
		}
	}
	return b.String()
}

// chaosBaseline runs the sweep fault-free once and caches each config's
// rendered result.
var chaosBaseline struct {
	once sync.Once
	res  map[string]string
}

func baselineResults(t *testing.T) map[string]string {
	t.Helper()
	chaosBaseline.once.Do(func() {
		sch := study.NewScheduler(chaosStudy(t), 2)
		defer sch.Close()
		out := make(map[string]string)
		for _, cfg := range chaosConfigs() {
			res, err := sch.Run(cfg)
			if err != nil {
				t.Fatalf("baseline %s: %v", cfg.Key(), err)
			}
			out[res.Key] = renderResult(res)
		}
		chaosBaseline.res = out
	})
	return chaosBaseline.res
}

// TestChaosSupervision is the table-driven core of the suite: each
// scenario injects one fault class and asserts that exactly the planned
// configurations fail while every survivor renders byte-identical to
// the fault-free baseline.
func TestChaosSupervision(t *testing.T) {
	quadKey := (study.RunConfig{Kind: study.RunQUAD, IncludeStack: true}).Key()
	scenarios := []struct {
		name       string
		plan       chaos.Plan
		retries    int
		runTimeout time.Duration
		wantFailed []string // keys that must fail; all others must survive
	}{
		{
			name:       "worker panic isolated",
			plan:       chaos.Plan{PanicConfigs: []string{"flat"}},
			wantFailed: []string{"flat"},
		},
		{
			name:       "hung worker hits run timeout",
			plan:       chaos.Plan{HangConfigs: []string{quadKey}},
			runTimeout: 5 * time.Second,
			wantFailed: []string{quadKey},
		},
		{
			name:    "transient failures retried to success",
			plan:    chaos.Plan{FailConfigs: map[string]int{"native": 2, "flat": 1}},
			retries: 3,
		},
		{
			name:    "record I/O fault retried to success",
			plan:    chaos.Plan{RecordFailures: 2, RecordFailAfter: 4096},
			retries: 3,
		},
		{
			name:       "retries exhausted reports failure",
			plan:       chaos.Plan{FailConfigs: map[string]int{"native": 5}},
			retries:    1,
			wantFailed: []string{"native"},
		},
	}
	baseline := baselineResults(t)
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			sch := study.NewScheduler(chaosStudy(t), 2)
			defer sch.Close()
			sch.SetHooks(chaos.New(sc.plan).Hooks())
			sch.SetRetries(sc.retries)
			sch.SetBackoff(time.Millisecond, 4*time.Millisecond)
			if sc.runTimeout > 0 {
				// Prime the shared recording before arming the per-run
				// timeout: the timeout under test targets the hung worker,
				// not the (deliberately long) guest recording.  Policy is
				// snapshotted per submission, so this is race-free.
				if _, err := sch.Run(chaosConfigs()[0]); err != nil {
					t.Fatalf("priming run: %v", err)
				}
				sch.SetRunTimeout(sc.runTimeout)
			}

			var failed []string
			for _, cfg := range chaosConfigs() {
				res, err := sch.Run(cfg)
				key := cfg.Key()
				if err != nil {
					failed = append(failed, key)
					continue
				}
				if got := renderResult(res); got != baseline[key] {
					t.Errorf("survivor %s differs from fault-free baseline:\n%s\nvs\n%s", key, got, baseline[key])
				}
			}
			sort.Strings(failed)
			want := append([]string(nil), sc.wantFailed...)
			sort.Strings(want)
			if fmt.Sprint(failed) != fmt.Sprint(want) {
				t.Errorf("failed configs = %v, want %v", failed, want)
			}
			if errs := sch.Flush(); len(errs) != len(want) {
				t.Errorf("Flush reported %d errors (%v), want %d", len(errs), errs, len(want))
			}
		})
	}
}

// observedChaosScheduler builds a fresh observed study and scheduler so
// each scenario reads supervision counters from a private registry —
// the shared chaosStudy has no observer, so its scheduler's counters
// are no-ops.
func observedChaosScheduler(t *testing.T) (*study.Scheduler, *obs.Observer) {
	t.Helper()
	o := obs.NewObserver()
	s, err := study.NewObserved(wfs.Small(), o)
	if err != nil {
		t.Fatal(err)
	}
	sch := study.NewScheduler(s, 2)
	t.Cleanup(func() { sch.Close() })
	return sch, o
}

// TestChaosSupervisionCountersRetries: the retry counter must equal the
// number of injected transient failures exactly — three faults, three
// retries, zero reported failures.
func TestChaosSupervisionCountersRetries(t *testing.T) {
	sch, o := observedChaosScheduler(t)
	sch.SetHooks(chaos.New(chaos.Plan{FailConfigs: map[string]int{"native": 2, "flat": 1}}).Hooks())
	sch.SetRetries(3)
	sch.SetBackoff(time.Millisecond, 4*time.Millisecond)
	for _, cfg := range []study.RunConfig{{Kind: study.RunNative}, {Kind: study.RunFlat}} {
		if _, err := sch.Run(cfg); err != nil {
			t.Fatalf("%s: %v", cfg.Key(), err)
		}
	}
	reg := o.Registry()
	if got := reg.Counter(obs.MetricSchedRetries).Value(); got != 3 {
		t.Errorf("%s = %d, want 3 (the injected fault count)", obs.MetricSchedRetries, got)
	}
	if got := reg.Counter(obs.MetricSchedFailures).Value(); got != 0 {
		t.Errorf("%s = %d, want 0 (every transient was retried to success)", obs.MetricSchedFailures, got)
	}
	if got := reg.Counter(obs.MetricSchedPanics).Value(); got != 0 {
		t.Errorf("%s = %d, want 0", obs.MetricSchedPanics, got)
	}
}

// TestChaosSupervisionCountersPanic: one injected worker panic must
// count once as a panic and once as a failed run.
func TestChaosSupervisionCountersPanic(t *testing.T) {
	sch, o := observedChaosScheduler(t)
	sch.SetHooks(chaos.New(chaos.Plan{PanicConfigs: []string{"flat"}}).Hooks())
	if _, err := sch.Run(study.RunConfig{Kind: study.RunFlat}); err == nil {
		t.Fatal("panicking run succeeded")
	}
	reg := o.Registry()
	if got := reg.Counter(obs.MetricSchedPanics).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricSchedPanics, got)
	}
	if got := reg.Counter(obs.MetricSchedFailures).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricSchedFailures, got)
	}
}

// TestChaosSupervisionCountersTimeout: a hung run killed by the per-run
// timeout is a permanent failure — one failure, zero retries.
func TestChaosSupervisionCountersTimeout(t *testing.T) {
	quad := study.RunConfig{Kind: study.RunQUAD, IncludeStack: true}
	sch, o := observedChaosScheduler(t)
	sch.SetHooks(chaos.New(chaos.Plan{HangConfigs: []string{quad.Key()}}).Hooks())
	sch.SetRetries(2)
	sch.SetBackoff(time.Millisecond, 4*time.Millisecond)
	// Prime the shared recording before arming the per-run timeout: the
	// timeout under test targets the hung worker, not the recording.
	if _, err := sch.Run(study.RunConfig{Kind: study.RunNative}); err != nil {
		t.Fatalf("priming run: %v", err)
	}
	sch.SetRunTimeout(500 * time.Millisecond)
	if _, err := sch.Run(quad); err == nil {
		t.Fatal("hung run succeeded")
	}
	reg := o.Registry()
	if got := reg.Counter(obs.MetricSchedFailures).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricSchedFailures, got)
	}
	if got := reg.Counter(obs.MetricSchedRetries).Value(); got != 0 {
		t.Errorf("%s = %d, want 0 (timeouts must not retry)", obs.MetricSchedRetries, got)
	}
}

// TestChaosStallDetection is the live-observability acceptance path: a
// hung run must be flagged as stalled — a `stalled` event on the bus
// plus a tquad_sched_stalled_total increment — while the run is still
// in flight, well before its run timeout kills it.
func TestChaosStallDetection(t *testing.T) {
	quad := study.RunConfig{Kind: study.RunQUAD, IncludeStack: true}
	sch, o := observedChaosScheduler(t)
	tracker := live.NewTracker(live.TrackerOptions{
		Registry:    o.Registry(),
		StallWindow: 100 * time.Millisecond,
	})
	defer tracker.Close()
	sch.SetEvents(tracker)
	sch.SetHooks(chaos.New(chaos.Plan{HangConfigs: []string{quad.Key()}}).Hooks())

	// Prime the shared recording, then arm a timeout comfortably longer
	// than the stall window: the stalled flag must win the race.
	if _, err := sch.Run(study.RunConfig{Kind: study.RunNative}); err != nil {
		t.Fatalf("priming run: %v", err)
	}
	sch.SetRunTimeout(2 * time.Second)

	sub := tracker.Bus().Subscribe()
	defer sub.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := sch.Run(quad)
		errc <- err
	}()

	deadline := time.After(1500 * time.Millisecond)
	for stalled := false; !stalled; {
		select {
		case ev := <-sub.Events():
			stalled = ev.Type == obs.EventStalled && ev.Key == quad.Key()
		case err := <-errc:
			t.Fatalf("run finished (err=%v) before a stalled event appeared", err)
		case <-deadline:
			t.Fatal("no stalled event within 1.5s (window 100ms)")
		}
	}
	if got := o.Registry().Counter(obs.MetricSchedStalled).Value(); got == 0 {
		t.Errorf("stalled event seen but %s = 0", obs.MetricSchedStalled)
	}
	if err := <-errc; err == nil {
		t.Fatal("hung run reported success")
	}
}

// TestChaosPanicErrorCarriesStack: a recovered worker panic surfaces as
// a *study.PanicError with the panicking goroutine's stack attached.
func TestChaosPanicErrorCarriesStack(t *testing.T) {
	sch := study.NewScheduler(chaosStudy(t), 2)
	defer sch.Close()
	sch.SetHooks(chaos.New(chaos.Plan{PanicConfigs: []string{"native"}}).Hooks())
	_, err := sch.Run(study.RunConfig{Kind: study.RunNative})
	var pe *study.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *study.PanicError", err)
	}
	if !strings.Contains(string(pe.Stack), "goroutine") {
		t.Error("panic error carries no stack trace")
	}
}

// TestChaosGuestTrapFailsSweep: a deterministic guest trap at
// instruction N kills the shared recording permanently — every config
// fails, nothing retries (the guest is deterministic), and the injected
// fault is identifiable in every reported error.
func TestChaosGuestTrapFailsSweep(t *testing.T) {
	sch := study.NewScheduler(chaosStudy(t), 2)
	defer sch.Close()
	sch.SetHooks(chaos.New(chaos.Plan{TrapAt: 100_000}).Hooks())
	sch.SetRetries(3)
	sch.SetBackoff(time.Millisecond, 4*time.Millisecond)
	for _, cfg := range chaosConfigs() {
		if _, err := sch.Run(cfg); !errors.Is(err, chaos.ErrInjected) {
			t.Errorf("%s: err = %v, want injected trap", cfg.Key(), err)
		}
	}
	if n := sch.GuestExecutions(); n != 1 {
		t.Errorf("guest executed %d times, want 1 (permanent faults must not retry)", n)
	}
}

// TestChaosTruncatedReplay: a torn trace stream fails every replay
// cleanly — no panics, errors for every config that replays.  The
// native run replays nothing: the recording serves it, fault-free.
func TestChaosTruncatedReplay(t *testing.T) {
	baseline := baselineResults(t)
	sch := study.NewScheduler(chaosStudy(t), 2)
	defer sch.Close()
	sch.SetHooks(chaos.New(chaos.Plan{ReplayTruncate: 64}).Hooks())
	for _, cfg := range chaosConfigs() {
		res, err := sch.Run(cfg)
		switch {
		case cfg.Kind == study.RunNative:
			if err != nil || renderResult(res) != baseline[cfg.Key()] {
				t.Errorf("native: %v; want the fault-free result, served by the recording", err)
			}
		case err == nil:
			t.Errorf("%s succeeded on a truncated trace", cfg.Key())
		}
	}
}

// TestChaosMidSweepCancellation: cancelling the sweep context mid-record
// fails every pending config with a cancellation error and leaves zero
// temp files behind — the interrupted recording is removed immediately,
// not at Close.
func TestChaosMidSweepCancellation(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	sch := study.NewScheduler(chaosStudy(t), 2)
	sch.SetContext(ctx)
	// Deterministic mid-record cancellation: the recording's own machine
	// pulls the plug once the guest is demonstrably mid-flight.
	sch.SetHooks(study.Hooks{
		Machine: func(_ context.Context, m *vm.Machine) {
			m.Watchdog = func(m *vm.Machine) error {
				if m.ICount >= 200_000 {
					cancel()
				}
				return nil
			}
		},
	})
	for _, cfg := range chaosConfigs() {
		_, err := sch.Run(cfg)
		if err == nil {
			t.Fatalf("%s succeeded under cancellation", cfg.Key())
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want a context.Canceled chain", cfg.Key(), err)
		}
	}
	sch.Close()

	ents, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("leaked temp file after cancelled sweep: %s", e.Name())
	}
}

// TestChaosCheckpointResume: a checkpointed sweep, "killed" and rerun
// against the same journal from a fresh scheduler, re-executes zero
// guest instructions — recordings come from the persisted trace, and
// completed configs are journalled — while producing byte-identical
// results.
func TestChaosCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	baseline := baselineResults(t)
	cfgs := chaosConfigs()

	// First invocation: completes only part of the sweep before the
	// process "dies" (we simply stop submitting).
	ck1, err := study.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	sch1 := study.NewScheduler(chaosStudy(t), 2)
	sch1.SetCheckpoint(ck1)
	for _, cfg := range cfgs[:2] {
		if _, err := sch1.Run(cfg); err != nil {
			t.Fatalf("first sweep %s: %v", cfg.Key(), err)
		}
	}
	sch1.Close()
	if err := ck1.Close(); err != nil {
		t.Fatal(err)
	}
	if n := sch1.GuestExecutions(); n != 1 {
		t.Fatalf("first sweep executed the guest %d times, want 1", n)
	}

	// Second invocation: fresh scheduler, same journal, full sweep.  The
	// two completed configs are already journalled, the recording is
	// served from the persisted trace, and the guest never runs again.
	ck2, err := study.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	for _, cfg := range cfgs[:2] {
		if !ck2.Done(cfg.Key()) {
			t.Errorf("resumed journal missing completed config %s", cfg.Key())
		}
	}
	sch2 := study.NewScheduler(chaosStudy(t), 2)
	defer sch2.Close()
	sch2.SetCheckpoint(ck2)
	for _, cfg := range cfgs {
		res, err := sch2.Run(cfg)
		if err != nil {
			t.Fatalf("resumed sweep %s: %v", cfg.Key(), err)
		}
		if got := renderResult(res); got != baseline[cfg.Key()] {
			t.Errorf("resumed %s differs from baseline:\n%s\nvs\n%s", cfg.Key(), got, baseline[cfg.Key()])
		}
	}
	if n := sch2.GuestExecutions(); n != 0 {
		t.Errorf("resumed sweep executed the guest %d times, want 0", n)
	}
	if got := len(ck2.Completed()); got != len(cfgs) {
		t.Errorf("journal holds %d completed configs, want %d", got, len(cfgs))
	}
}

// TestChaosBlockEngineParity: the cache-bearing sweep forced onto the
// reference interpreter renders byte-identical to the default
// (block-engine) baseline — engine choice must never leak into any
// profile, simulator report, or counter a sweep produces.
func TestChaosBlockEngineParity(t *testing.T) {
	baseline := baselineResults(t)
	sch := study.NewScheduler(chaosStudy(t), 2)
	defer sch.Close()
	interpreted := 0
	sch.SetHooks(study.Hooks{
		Machine: func(_ context.Context, m *vm.Machine) {
			m.BlockEngine = false
			interpreted++
		},
	})
	for _, cfg := range chaosConfigs() {
		res, err := sch.Run(cfg)
		if err != nil {
			t.Fatalf("%s on interpreter: %v", cfg.Key(), err)
		}
		if got := renderResult(res); got != baseline[cfg.Key()] {
			t.Errorf("interpreter %s differs from block-engine baseline:\n%s\nvs\n%s",
				cfg.Key(), got, baseline[cfg.Key()])
		}
	}
	if interpreted == 0 {
		t.Fatal("machine hook never ran: sweep did not execute a guest")
	}
}

// TestChaosBlockEngineKillResume: a cache-bearing checkpointed sweep
// running on the block engine — with sealed blocks warm in the recording
// machine — is "killed" (cancelled mid-record) on its first invocation;
// the rerun completes the whole sweep, a third invocation replays it
// with zero guest executions, and none of the three invocations leaves
// a temp file behind.
func TestChaosBlockEngineKillResume(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	baseline := baselineResults(t)
	dir := t.TempDir()
	cfgs := chaosConfigs()

	// Pass 1: the recording run is cancelled while a block-engine
	// machine is demonstrably mid-flight (the watchdog only fires at
	// block boundaries, so a firing proves compiled blocks are
	// executing).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ck1, err := study.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	sch1 := study.NewScheduler(chaosStudy(t), 2)
	sch1.SetContext(ctx)
	sch1.SetCheckpoint(ck1)
	fired := false
	sch1.SetHooks(study.Hooks{
		Machine: func(_ context.Context, m *vm.Machine) {
			if !m.BlockEngine {
				t.Error("sweep machine not on the block engine")
			}
			m.Watchdog = func(m *vm.Machine) error {
				if m.ICount >= 200_000 {
					fired = true
					cancel()
				}
				return nil
			}
		},
	})
	if _, err := sch1.Run(cfgs[3]); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed recording run: err = %v, want context.Canceled", err)
	}
	if !fired {
		t.Fatal("watchdog never fired: no compiled blocks executed before the kill")
	}
	sch1.Close()
	if err := ck1.Close(); err != nil {
		t.Fatal(err)
	}

	// Pass 2: fresh scheduler, same journal; the aborted recording was
	// not journalled, so the sweep re-records once and completes.
	ck2, err := study.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	sch2 := study.NewScheduler(chaosStudy(t), 2)
	sch2.SetCheckpoint(ck2)
	for _, cfg := range cfgs {
		res, err := sch2.Run(cfg)
		if err != nil {
			t.Fatalf("resumed sweep %s: %v", cfg.Key(), err)
		}
		if got := renderResult(res); got != baseline[cfg.Key()] {
			t.Errorf("resumed %s differs from baseline:\n%s\nvs\n%s", cfg.Key(), got, baseline[cfg.Key()])
		}
	}
	if n := sch2.GuestExecutions(); n != 1 {
		t.Errorf("resumed sweep executed the guest %d times, want 1 (the re-recording)", n)
	}
	sch2.Close()
	if err := ck2.Close(); err != nil {
		t.Fatal(err)
	}

	// Pass 3: everything journalled; the sweep replays without running
	// the guest at all.
	ck3, err := study.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ck3.Close()
	sch3 := study.NewScheduler(chaosStudy(t), 2)
	defer sch3.Close()
	sch3.SetCheckpoint(ck3)
	for _, cfg := range cfgs {
		res, err := sch3.Run(cfg)
		if err != nil {
			t.Fatalf("replayed sweep %s: %v", cfg.Key(), err)
		}
		if got := renderResult(res); got != baseline[cfg.Key()] {
			t.Errorf("replayed %s differs from baseline:\n%s\nvs\n%s", cfg.Key(), got, baseline[cfg.Key()])
		}
	}
	if n := sch3.GuestExecutions(); n != 0 {
		t.Errorf("replayed sweep executed the guest %d times, want 0", n)
	}

	ents, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("leaked temp file after kill-and-resume sweep: %s", e.Name())
	}
}
