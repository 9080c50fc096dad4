package study_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"tquad/internal/obs"
	"tquad/internal/study"
	"tquad/internal/trace"
	"tquad/internal/wfs"
)

func newStudy(t *testing.T, o *obs.Observer) *study.Study {
	t.Helper()
	s, err := study.NewObserved(wfs.Small(), o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSlowdownParallelMatchesSerial is the determinism gate: the live
// serial sweep (one worker, every configuration executed) and the
// record/replay scheduler at every parallelism level must render
// byte-identical slowdown tables.
func TestSlowdownParallelMatchesSerial(t *testing.T) {
	s := newStudy(t, nil)
	native, err := s.NativeICount()
	if err != nil {
		t.Fatal(err)
	}
	ivs := []uint64{native / 64, native / 16}

	sweep := func(jobs int, replay bool) string {
		sch := study.NewScheduler(s, jobs)
		defer sch.Close()
		sch.SetReplay(replay)
		rows, err := sch.Slowdown(ivs)
		if err != nil {
			t.Fatalf("jobs=%d replay=%v: %v", jobs, replay, err)
		}
		return study.RenderSlowdown(rows)
	}
	serial := sweep(1, false)
	for _, jobs := range []int{1, 4} {
		if got := sweep(jobs, true); got != serial {
			t.Errorf("jobs=%d table differs from serial:\n%s\nvs\n%s", jobs, got, serial)
		}
	}
}

// TestSchedulerMemoisation asserts that equal configurations share one
// guest execution and unequal ones do not.
func TestSchedulerMemoisation(t *testing.T) {
	sch := study.NewScheduler(newStudy(t, nil), 2)
	cfg := study.RunConfig{Kind: study.RunTQUAD, SliceInterval: 100_000, IncludeStack: true}
	p1 := sch.Submit(cfg)
	p2 := sch.Submit(cfg)
	if p1 != p2 {
		t.Error("identical configs did not share a run")
	}
	other := cfg
	other.IncludeStack = false
	if sch.Submit(other) == p1 {
		t.Error("different configs shared a run")
	}
	r1, err := p1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("shared run returned distinct results")
	}
	if errs := sch.Flush(); len(errs) != 0 {
		t.Fatalf("flush errors: %v", errs)
	}
}

// TestSchedulerMergedRegistryDeterministic runs the same sweep at two
// parallelism levels with per-run observability and requires the merged
// Prometheus snapshots to be byte-identical: registry merging happens in
// config-key order, never completion order.
func TestSchedulerMergedRegistryDeterministic(t *testing.T) {
	snapshot := func(jobs int) string {
		o := obs.NewObserver()
		s := newStudy(t, o)
		native, err := s.NativeICount()
		if err != nil {
			t.Fatal(err)
		}
		sch := study.NewScheduler(s, jobs)
		defer sch.Close()
		if _, err := sch.Slowdown([]uint64{native / 64}); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := o.Metrics.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if a, b := snapshot(1), snapshot(4); a != b {
		t.Errorf("merged registry depends on parallelism:\n%s\nvs\n%s", a, b)
	}
}

// TestSchedulerFullSweepParallel drives every run kind through one
// scheduler at jobs=4 with observability attached — the sweep `make
// race` executes under the race detector.
func TestSchedulerFullSweepParallel(t *testing.T) {
	o := obs.NewObserver()
	s := newStudy(t, o)
	sch := study.NewScheduler(s, 4)
	native, err := sch.NativeICount()
	if err != nil {
		t.Fatal(err)
	}
	configs := []study.RunConfig{
		{Kind: study.RunFlat},
		{Kind: study.RunQUAD, IncludeStack: false},
		{Kind: study.RunQUAD, IncludeStack: true},
		{Kind: study.RunInstrFlat},
		{Kind: study.RunTQUAD, SliceInterval: native / 64, IncludeStack: true},
		{Kind: study.RunTQUAD, SliceInterval: native / 16, IncludeStack: false},
		{Kind: study.RunTQUAD, SliceInterval: 5000, IncludeStack: true},
	}
	pend := make([]*study.Pending, len(configs))
	for i, cfg := range configs {
		pend[i] = sch.Submit(cfg)
	}
	if errs := sch.Flush(); len(errs) != 0 {
		t.Fatalf("sweep errors: %v", errs)
	}
	for i, p := range pend {
		res, err := p.Wait()
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		switch configs[i].Kind {
		case study.RunFlat, study.RunInstrFlat:
			if res.Flat == nil {
				t.Errorf("%s: missing flat profile", res.Key)
			}
		case study.RunQUAD:
			if res.Quad == nil {
				t.Errorf("%s: missing QUAD report", res.Key)
			}
		case study.RunTQUAD:
			if res.Temporal == nil || res.Temporal.TotalInstr == 0 {
				t.Errorf("%s: missing temporal profile", res.Key)
			}
		}
		if res.Registry == nil {
			t.Errorf("%s: missing per-run registry", res.Key)
		}
	}
	// The merged trace must contain one adopted root per run key.
	recs := o.Spans.Records()
	roots := make(map[string]int)
	for _, r := range recs {
		if r.Depth == 0 {
			roots[r.Name]++
		}
	}
	for _, cfg := range configs {
		if roots[cfg.Key()] != 1 {
			t.Errorf("adopted roots for %s = %d, want 1", cfg.Key(), roots[cfg.Key()])
		}
	}
}

// TestSchedulerConcurrentWaiters: runs submitted and awaited from many
// goroutines at once, several of them sharing a configuration, all
// finish off one recording, each pass started by a wait that found
// replays queued.
func TestSchedulerConcurrentWaiters(t *testing.T) {
	sch := study.NewScheduler(newStudy(t, nil), 2)
	defer sch.Close()
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := study.RunConfig{Kind: study.RunTQUAD, SliceInterval: uint64(50_000 * (1 + i%4)), IncludeStack: true}
			if _, err := sch.Run(cfg); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := sch.GuestExecutions(); n != 1 {
		t.Errorf("guest executions = %d, want 1", n)
	}
	if n := sch.DecodePasses(); n == 0 || n > 4 {
		t.Errorf("4 distinct configs used %d decode passes, want 1 to 4", n)
	}
}

// TestSchedulerReportsFailures asserts a failing run surfaces through
// both Wait and Flush (the CLIs turn this into a non-zero exit).
func TestSchedulerReportsFailures(t *testing.T) {
	sch := study.NewScheduler(newStudy(t, nil), 2)
	bad := study.RunConfig{Kind: study.RunKind(99)}
	if _, err := sch.Run(bad); err == nil {
		t.Fatal("unknown run kind did not error")
	}
	errs := sch.Flush()
	if len(errs) != 1 {
		t.Fatalf("flush errors = %v, want exactly one", errs)
	}
}

// TestSchedulerDuplicateFailedSubmissions (regression): resubmitting a
// configuration whose run failed must surface the failure again — the
// memo cache shares results, and an error is a result, so a duplicate
// submission must never look like a silent success.
func TestSchedulerDuplicateFailedSubmissions(t *testing.T) {
	sch := study.NewScheduler(newStudy(t, nil), 2)
	defer sch.Close()
	bad := study.RunConfig{Kind: study.RunKind(99)}
	p1 := sch.Submit(bad)
	if _, err := p1.Wait(); err == nil {
		t.Fatal("unknown run kind did not error")
	}
	p2 := sch.Submit(bad)
	if p1 != p2 {
		t.Error("duplicate submission did not share the failed run")
	}
	if _, err := p2.Wait(); err == nil {
		t.Fatal("duplicate submission of a failed config reported success")
	}
	if _, err := sch.Run(bad); err == nil {
		t.Fatal("third submission of a failed config reported success")
	}
	// Flush reports the failure once per distinct key, not per submission.
	if errs := sch.Flush(); len(errs) != 1 {
		t.Fatalf("flush errors = %v, want exactly one", errs)
	}
	// An invalid kind must not have cost a guest execution or recording.
	if n := sch.GuestExecutions(); n != 0 {
		t.Errorf("invalid config triggered %d guest executions", n)
	}
}

// TestSchedulerReplayMatchesLive: the same configuration run in replay
// mode (the default) and live mode must produce byte-identical profiles
// and identical clocks.
func TestSchedulerReplayMatchesLive(t *testing.T) {
	s := newStudy(t, nil)
	cfg := study.RunConfig{Kind: study.RunTQUAD, SliceInterval: 20_000, IncludeStack: true}

	replaySch := study.NewScheduler(s, 2)
	defer replaySch.Close()
	repRes, err := replaySch.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := replaySch.GuestExecutions(); n != 1 {
		t.Errorf("replay-mode run used %d guest executions, want 1 recording", n)
	}

	liveSch := study.NewScheduler(s, 2)
	liveSch.SetReplay(false)
	defer liveSch.Close()
	liveRes, err := liveSch.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := liveSch.GuestExecutions(); n != 1 {
		t.Errorf("live-mode run used %d guest executions, want 1", n)
	}

	var a, b strings.Builder
	if err := trace.SaveTemporal(&a, repRes.Temporal); err != nil {
		t.Fatal(err)
	}
	if err := trace.SaveTemporal(&b, liveRes.Temporal); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("replayed profile differs from live profile")
	}
	if repRes.Time != liveRes.Time || repRes.ICount != liveRes.ICount || repRes.Overhead != liveRes.Overhead {
		t.Errorf("replayed clock (ic=%d ov=%d t=%d) differs from live (ic=%d ov=%d t=%d)",
			repRes.ICount, repRes.Overhead, repRes.Time,
			liveRes.ICount, liveRes.Overhead, liveRes.Time)
	}
}

// TestSchedulerSweepRecordsOnce: a full mixed sweep shares a single
// recorded guest execution across every configuration, and the merged
// trace distinguishes the recording from the replays.
func TestSchedulerSweepRecordsOnce(t *testing.T) {
	o := obs.NewObserver()
	s := newStudy(t, o)
	sch := study.NewScheduler(s, 4)
	defer sch.Close()
	configs := []study.RunConfig{
		{Kind: study.RunNative},
		{Kind: study.RunFlat},
		{Kind: study.RunQUAD, IncludeStack: true},
		{Kind: study.RunTQUAD, SliceInterval: 10_000, IncludeStack: true},
		{Kind: study.RunTQUAD, SliceInterval: 40_000, IncludeStack: false},
	}
	for _, cfg := range configs {
		sch.Submit(cfg)
	}
	if errs := sch.Flush(); len(errs) != 0 {
		t.Fatalf("sweep errors: %v", errs)
	}
	if n := sch.GuestExecutions(); n != 1 {
		t.Errorf("sweep of %d configs used %d guest executions, want 1", len(configs), n)
	}
	roots := make(map[string]int)
	for _, r := range o.Spans.Records() {
		if r.Depth == 0 {
			roots[r.Name]++
		}
	}
	if roots["record/guest"] != 1 {
		t.Errorf("adopted recording roots = %d, want 1", roots["record/guest"])
	}
	for _, cfg := range configs {
		if roots[cfg.Key()] != 1 {
			t.Errorf("adopted roots for %s = %d, want 1", cfg.Key(), roots[cfg.Key()])
		}
	}
}

// TestSchedulerSweepDecodesOnce: the batched fan-out contract.  A sweep
// of N replayed configs over one recorded execution must cost exactly
// one trace decode pass — every consumer rides the same record stream.
// Submitting only queues a replay: the pass starts when a result is
// awaited, so a replay submitted long after the one before it still
// shares its pass, and a wait on a finished run starts none.
func TestSchedulerSweepDecodesOnce(t *testing.T) {
	s := newStudy(t, nil)
	sch := study.NewScheduler(s, 4)
	defer sch.Close()
	sch.SetReplayJobs(2)
	configs := []study.RunConfig{
		{Kind: study.RunFlat},
		{Kind: study.RunQUAD, IncludeStack: true},
		{Kind: study.RunTQUAD, SliceInterval: 10_000, IncludeStack: true},
		{Kind: study.RunTQUAD, SliceInterval: 40_000, IncludeStack: false},
		{Kind: study.RunTQUAD, SliceInterval: 20_000, IncludeStack: true, Cache: "l1=1k/2/64,l2=8k/4/64"},
	}
	pend := make([]*study.Pending, len(configs))
	for i, cfg := range configs {
		pend[i] = sch.Submit(cfg)
	}
	if errs := sch.Flush(); len(errs) != 0 {
		t.Fatalf("sweep errors: %v", errs)
	}
	for i, p := range pend {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
	}
	if n := sch.GuestExecutions(); n != 1 {
		t.Errorf("guest executions = %d, want 1", n)
	}
	if n := sch.DecodePasses(); n != 1 {
		t.Errorf("sweep of %d replayed configs used %d decode passes, want 1", len(configs), n)
	}

	// The native sizing run, then two replays submitted apart with a
	// wait on the finished native run between them: the recording is
	// long done, yet the two still share one pass.
	if _, err := sch.NativeICount(); err != nil {
		t.Fatal(err)
	}
	before := sch.DecodePasses()
	first := sch.Submit(study.RunConfig{Kind: study.RunTQUAD, SliceInterval: 80_000, IncludeStack: true})
	time.Sleep(100 * time.Millisecond)
	if _, err := sch.NativeICount(); err != nil {
		t.Fatal(err)
	}
	second := sch.Submit(study.RunConfig{Kind: study.RunTQUAD, SliceInterval: 160_000, IncludeStack: true})
	if _, err := study.WaitAll(first, second); err != nil {
		t.Fatal(err)
	}
	if n := sch.DecodePasses() - before; n != 1 {
		t.Errorf("two replays submitted 100ms apart used %d decode passes, want 1", n)
	}
}
