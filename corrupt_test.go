// Disk-corruption chaos suite: the scheduler records a guest trace
// through a fault injector that silently damages the bytes on their way
// to disk (bit flips, torn tails) or fails them honestly (ENOSPC), and
// every scenario asserts the integrity contract end to end — corruption
// is detected at replay, re-recorded exactly once, and the sweep's
// results stay byte-identical to a fault-free baseline; unrecoverable
// faults fail fast with the real cause in the error chain.  Run in
// isolation via `make corrupt` (folded into `make verify`).
package repro_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"tquad/internal/chaos"
	"tquad/internal/etrace"
	"tquad/internal/obs"
	"tquad/internal/study"
)

// TestChaosCorruptTraceRerecord: seeded bit flips damage the first
// recording silently — the recorder sees every write succeed.  Replay
// must detect the damage, re-execute the guest exactly once (the second
// recording is clean: RecordCorruptions budget of 1), and deliver every
// config byte-identical to the fault-free baseline.
func TestChaosCorruptTraceRerecord(t *testing.T) {
	baseline := baselineResults(t)
	sch, o := observedChaosScheduler(t)
	sch.SetHooks(chaos.New(chaos.Plan{
		RecordFlipOffsets: chaos.BitFlips(31337, 3, 4096),
		RecordCorruptions: 1,
	}).Hooks())
	for _, cfg := range chaosConfigs() {
		res, err := sch.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Key(), err)
		}
		if got := renderResult(res); got != baseline[cfg.Key()] {
			t.Errorf("%s differs from fault-free baseline after rerecord:\n%s\nvs\n%s",
				cfg.Key(), got, baseline[cfg.Key()])
		}
	}
	if n := sch.GuestExecutions(); n != 2 {
		t.Errorf("guest executed %d times, want 2 (original + one re-recording)", n)
	}
	if got := o.Registry().Counter(obs.MetricSchedRerecords).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricSchedRerecords, got)
	}
}

// TestChaosCorruptTraceRerecordBudget: when every recording attempt is
// corrupted, the one-re-execution budget caps the damage — the sweep
// fails with the corruption identified, rather than re-running the
// guest forever.
func TestChaosCorruptTraceRerecordBudget(t *testing.T) {
	sch := study.NewScheduler(chaosStudy(t), 2)
	defer sch.Close()
	sch.SetHooks(chaos.New(chaos.Plan{
		RecordFlipOffsets: chaos.BitFlips(31337, 3, 4096),
		// RecordCorruptions 0: every attempt, including the re-recording.
	}).Hooks())
	for _, cfg := range chaosConfigs() {
		_, err := sch.Run(cfg)
		if err == nil {
			t.Fatalf("%s succeeded on a trace corrupted every attempt", cfg.Key())
		}
		if !etrace.IsCorrupt(err) {
			t.Errorf("%s: err = %v, want a corruption-classified chain", cfg.Key(), err)
		}
	}
	if n := sch.GuestExecutions(); n != 2 {
		t.Errorf("guest executed %d times, want 2 (the budget is one re-recording)", n)
	}
}

// TestChaosENOSPCPermanent: a disk that fills mid-recording is a
// permanent host condition — the sweep fails fast with ENOSPC in every
// error chain, burning zero retries and zero extra guest executions.
func TestChaosENOSPCPermanent(t *testing.T) {
	sch, o := observedChaosScheduler(t)
	sch.SetHooks(chaos.New(chaos.Plan{RecordENOSPCAfter: 4096}).Hooks())
	sch.SetRetries(3)
	sch.SetBackoff(time.Millisecond, 4*time.Millisecond)
	for _, cfg := range chaosConfigs() {
		_, err := sch.Run(cfg)
		if err == nil {
			t.Fatalf("%s succeeded on a full disk", cfg.Key())
		}
		if !errors.Is(err, syscall.ENOSPC) {
			t.Errorf("%s: err = %v, want ENOSPC in the chain", cfg.Key(), err)
		}
	}
	if n := sch.GuestExecutions(); n != 1 {
		t.Errorf("guest executed %d times, want 1 (ENOSPC must not retry)", n)
	}
	if got := o.Registry().Counter(obs.MetricSchedRetries).Value(); got != 0 {
		t.Errorf("%s = %d, want 0 (permanent faults burn no retries)", obs.MetricSchedRetries, got)
	}
}

// TestChaosTornTailRecording: the crash-consistency shape — writes past
// an offset report success but never land, so the recording "succeeds"
// with a truncated file.  Replay must detect the tear and the rerecord
// path (clean on the second attempt) must restore baseline results.
func TestChaosTornTailRecording(t *testing.T) {
	baseline := baselineResults(t)
	sch := study.NewScheduler(chaosStudy(t), 2)
	defer sch.Close()
	sch.SetHooks(chaos.New(chaos.Plan{
		RecordTornTail:    8192,
		RecordCorruptions: 1,
	}).Hooks())
	for _, cfg := range chaosConfigs() {
		res, err := sch.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Key(), err)
		}
		if got := renderResult(res); got != baseline[cfg.Key()] {
			t.Errorf("%s differs from fault-free baseline after torn-tail rerecord:\n%s\nvs\n%s",
				cfg.Key(), got, baseline[cfg.Key()])
		}
	}
	if n := sch.GuestExecutions(); n != 2 {
		t.Errorf("guest executed %d times, want 2 (original + one re-recording)", n)
	}
}

// TestCheckpointResumeOverDamagedTrace: a checkpoint directory whose
// trace had one byte flipped mid-payload while no process had it open
// is resumed by a fresh process.  The resume decodes the trace it
// finds on disk, rejects it, records the guest once afresh, and
// delivers every config byte-identical to the fault-free baseline.
func TestCheckpointResumeOverDamagedTrace(t *testing.T) {
	baseline := baselineResults(t)
	dir := t.TempDir()
	all := chaosConfigs()
	// The native run and a tQUAD run that replays every event.
	cfgs := []study.RunConfig{all[0], all[3]}
	sweep := func() *study.Scheduler {
		ck, err := study.OpenCheckpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer ck.Close()
		sch := study.NewScheduler(chaosStudy(t), 2)
		defer sch.Close()
		sch.SetCheckpoint(ck)
		for _, cfg := range cfgs {
			res, err := sch.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", cfg.Key(), err)
			}
			if got := renderResult(res); got != baseline[cfg.Key()] {
				t.Errorf("%s differs from fault-free baseline:\n%s\nvs\n%s", cfg.Key(), got, baseline[cfg.Key()])
			}
		}
		return sch
	}
	sweep()

	path := filepath.Join(dir, "trace-guest.etrace")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if n := sweep().GuestExecutions(); n != 1 {
		t.Errorf("resume over a damaged checkpoint trace executed the guest %d times, want 1", n)
	}
	if info, err := statFile(t, path); err != nil || info.Damaged() {
		t.Errorf("re-recorded checkpoint trace: %v (damaged %v)", err, info != nil && info.Damaged())
	}
}

// TestRerecordForgetsCheckpointTrace: the checkpoint trusts the
// recording it persisted without decoding it, so when replay finds that
// recording corrupt, the rerecord must make the checkpoint forget it:
// from the removal until the replacement is persisted, the checkpoint
// has no trace to offer.
func TestRerecordForgetsCheckpointTrace(t *testing.T) {
	baseline := baselineResults(t)
	ck, err := study.OpenCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	sch := study.NewScheduler(chaosStudy(t), 2)
	defer sch.Close()
	sch.SetCheckpoint(ck)
	hooks := chaos.New(chaos.Plan{
		RecordFlipOffsets: chaos.BitFlips(31337, 3, 4096),
		RecordCorruptions: 1,
	}).Hooks()
	records, before := 0, hooks.BeforeRecord
	hooks.BeforeRecord = func(ctx context.Context, attempt int) error {
		if records++; records == 2 {
			if path, ok := ck.PersistedTrace(); ok {
				t.Errorf("re-recording: checkpoint still offers the corrupt trace %s", path)
			}
		}
		return before(ctx, attempt)
	}
	sch.SetHooks(hooks)
	cfg := chaosConfigs()[3]
	res, err := sch.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Key(), err)
	}
	if got := renderResult(res); got != baseline[cfg.Key()] {
		t.Errorf("%s differs from fault-free baseline after rerecord:\n%s\nvs\n%s", cfg.Key(), got, baseline[cfg.Key()])
	}
	if records != 2 {
		t.Fatalf("%d recordings, want 2 (original + one re-recording)", records)
	}
	path, ok := ck.PersistedTrace()
	if !ok {
		t.Fatal("checkpoint offers no trace after the re-recording was persisted")
	}
	if info, err := statFile(t, path); err != nil || info.Damaged() {
		t.Errorf("persisted re-recording: %v (damaged %v)", err, info != nil && info.Damaged())
	}
}

// statFile checks the trace at path with etrace.Stat.
func statFile(t *testing.T, path string) (*etrace.Info, error) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return etrace.Stat(bytes.NewReader(b), int64(len(b)))
}
