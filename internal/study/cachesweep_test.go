package study_test

// Cache-geometry sweep tests: memsim is the first analysis that
// exercises record-once/replay-many at scale, so these pin the three
// sweep guarantees — one guest execution for N hierarchies, output
// independent of -jobs, and replayed simulation byte-identical to live.

import (
	"reflect"
	"testing"

	"tquad/internal/memsim"
	"tquad/internal/study"
)

var sweepCaches = []string{
	"l1=1k/2/64",
	"l1=1k/2/64,l2=8k/4/64",
	"l1=2k/4/64,l2=16k/4/64,llc=64k/8/64",
	"l1=4k/8/64,l2=32k/8/64,llc=128k/16/64",
}

// runCacheSweep executes the 4-config hierarchy sweep at the given
// parallelism and returns the rendered comparison plus the profiles.
func runCacheSweep(t *testing.T, s *study.Study, jobs int) (string, []*memsim.Profile, uint64) {
	t.Helper()
	sch := study.NewScheduler(s, jobs)
	defer sch.Close()
	pend := make([]*study.Pending, len(sweepCaches))
	for i, cache := range sweepCaches {
		pend[i] = sch.Submit(study.RunConfig{
			Kind: study.RunTQUAD, SliceInterval: 20_000, IncludeStack: true, Cache: cache,
		})
	}
	if errs := sch.Flush(); len(errs) != 0 {
		t.Fatalf("sweep errors: %v", errs)
	}
	profs := make([]*memsim.Profile, len(pend))
	for i, p := range pend {
		res, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.Mem == nil {
			t.Fatalf("config %q produced no memory-hierarchy profile", sweepCaches[i])
		}
		if res.Temporal == nil {
			t.Fatalf("config %q lost its temporal profile", sweepCaches[i])
		}
		profs[i] = res.Mem
	}
	return study.RenderCacheSweep(profs), profs, sch.GuestExecutions()
}

// TestCacheSweepSingleExecution is the acceptance gate: a 4-config cache
// sweep runs off a single recorded guest execution and its output is
// byte-identical at any parallelism.
func TestCacheSweepSingleExecution(t *testing.T) {
	s := newStudy(t, nil)
	table1, profs1, execs := runCacheSweep(t, s, 1)
	if execs != 1 {
		t.Errorf("4-config cache sweep used %d guest executions, want 1", execs)
	}
	table4, profs4, execs4 := runCacheSweep(t, s, 4)
	if execs4 != 1 {
		t.Errorf("parallel cache sweep used %d guest executions, want 1", execs4)
	}
	if table1 != table4 {
		t.Errorf("cache sweep table depends on -jobs:\n%s\nvs\n%s", table1, table4)
	}
	for i := range profs1 {
		if !reflect.DeepEqual(profs1[i], profs4[i]) {
			t.Errorf("config %q: per-slice series differ between jobs=1 and jobs=4", sweepCaches[i])
		}
	}
	// The geometries genuinely differ, so the simulated traffic must too:
	// monotonically growing hierarchies shed off-chip bytes.
	for i := 1; i < len(profs1); i++ {
		if profs1[i].OffChipBytes() >= profs1[i-1].OffChipBytes() {
			t.Errorf("hierarchy %q off-chip %d not below smaller %q's %d",
				sweepCaches[i], profs1[i].OffChipBytes(), sweepCaches[i-1], profs1[i-1].OffChipBytes())
		}
	}
}

// TestMemsimReplayMatchesLive: the simulator attached to a replayed
// trace must produce byte-for-byte the same per-slice series as attached
// live, on both stack policies.
func TestMemsimReplayMatchesLive(t *testing.T) {
	s := newStudy(t, nil)
	for _, includeStack := range []bool{true, false} {
		cfg := study.RunConfig{
			Kind: study.RunTQUAD, SliceInterval: 20_000,
			IncludeStack: includeStack, Cache: "l1=1k/2/64,l2=8k/4/64",
		}

		replaySch := study.NewScheduler(s, 2)
		repRes, err := replaySch.Run(cfg)
		replaySch.Close()
		if err != nil {
			t.Fatal(err)
		}

		liveSch := study.NewScheduler(s, 2)
		liveSch.SetReplay(false)
		liveRes, err := liveSch.Run(cfg)
		liveSch.Close()
		if err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(repRes.Mem, liveRes.Mem) {
			t.Errorf("stack=%v: replayed memsim profile differs from live", includeStack)
		}
		if repRes.Time != liveRes.Time || repRes.Overhead != liveRes.Overhead {
			t.Errorf("stack=%v: replayed clock (ov=%d t=%d) differs from live (ov=%d t=%d)",
				includeStack, repRes.Overhead, repRes.Time, liveRes.Overhead, liveRes.Time)
		}
	}
}

// TestCacheKeyCompatibility: configurations without a cache render the
// pre-memsim key (existing outputs stay byte-identical), and distinct
// hierarchies get distinct keys.
func TestCacheKeyCompatibility(t *testing.T) {
	plain := study.RunConfig{Kind: study.RunTQUAD, SliceInterval: 100_000, IncludeStack: true}
	if got, want := plain.Key(), "tquad/slice=100000/stack=include/libs=all/prefetch=fast"; got != want {
		t.Errorf("cache-less key changed: %q, want %q", got, want)
	}
	cached := plain
	cached.Cache = "l1=1024/2/64"
	if cached.Key() == plain.Key() {
		t.Error("cache configuration absent from the run key")
	}
	other := plain
	other.Cache = "l1=2048/2/64"
	if other.Key() == cached.Key() {
		t.Error("distinct hierarchies share a run key")
	}
	quad := study.RunConfig{Kind: study.RunQUAD, IncludeStack: true}
	if got, want := quad.Key(), "quad/stack=include"; got != want {
		t.Errorf("QUAD key changed: %q, want %q", got, want)
	}
	quad.ExcludeLibs = true
	if got, want := quad.Key(), "quad/stack=include/libs=main"; got != want {
		t.Errorf("library-excluding QUAD key = %q, want %q", got, want)
	}
}

// TestCacheBadConfigFails: a malformed geometry surfaces as a run error,
// costing no guest execution beyond the shared recording.
func TestCacheBadConfigFails(t *testing.T) {
	sch := study.NewScheduler(newStudy(t, nil), 2)
	defer sch.Close()
	bad := study.RunConfig{Kind: study.RunTQUAD, SliceInterval: 20_000, Cache: "l1=48k/8/64"}
	if _, err := sch.Run(bad); err == nil {
		t.Fatal("non-power-of-two set count did not error")
	}
}
