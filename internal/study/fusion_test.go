package study_test

// Fusion tests: tQUAD runs that differ only in slice interval share one
// replay consumer, one call-stack attribution and one cache simulation
// in a pass.  Each must still report exactly what it reports alone, and
// the reference here is the live run, which shares nothing.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tquad/internal/etrace"
	"tquad/internal/obs"
	"tquad/internal/study"
	"tquad/internal/trace"
)

// fusionConfigs are four groups of three intervals — every combination
// of no cache or a two-level cache with the stack included or excluded
// — and a group that excludes library code.
func fusionConfigs() []study.RunConfig {
	var cfgs []study.RunConfig
	for _, cache := range []string{"", "l1=1k/2/64,l2=8k/4/64"} {
		for _, incl := range []bool{true, false} {
			for _, iv := range []uint64{20_000, 50_000, 300_000} {
				cfgs = append(cfgs, study.RunConfig{Kind: study.RunTQUAD, SliceInterval: iv, IncludeStack: incl, Cache: cache})
			}
		}
	}
	for _, iv := range []uint64{50_000, 300_000} {
		cfgs = append(cfgs, study.RunConfig{Kind: study.RunTQUAD, SliceInterval: iv, IncludeStack: true, ExcludeLibs: true})
	}
	return cfgs
}

// engineOnly reports whether a live run's metric counts the work of its
// block engine or of the instrumentation folded into it, which a replay
// has no engine for.
func engineOnly(name string) bool {
	switch name {
	case "tquad_pin_blocks_folded_total", "tquad_pin_dispatched_calls_total", "tquad_pin_folded_calls_total":
		return true
	}
	return strings.HasPrefix(name, "tquad_vm_block")
}

// sameRun reports how got differs from want, the live run of the same
// configuration: profiles (as JSON), breakdown and clock, and every
// metric of either registry but the live engine's own.
func sameRun(got, want *study.RunResult) error {
	var a, b strings.Builder
	if err := trace.SaveTemporal(&a, got.Temporal); err != nil {
		return err
	}
	if err := trace.SaveTemporal(&b, want.Temporal); err != nil {
		return err
	}
	if a.String() != b.String() {
		return fmt.Errorf("temporal profile differs")
	}
	gm, err := json.Marshal(got.Mem)
	if err != nil {
		return err
	}
	wm, err := json.Marshal(want.Mem)
	if err != nil {
		return err
	}
	if string(gm) != string(wm) {
		return fmt.Errorf("memory-hierarchy profile differs")
	}
	if got.Breakdown != want.Breakdown {
		return fmt.Errorf("breakdown %+v, live %+v", got.Breakdown, want.Breakdown)
	}
	if got.ICount != want.ICount || got.Overhead != want.Overhead || got.Time != want.Time {
		return fmt.Errorf("clock ic=%d ov=%d t=%d, live ic=%d ov=%d t=%d",
			got.ICount, got.Overhead, got.Time, want.ICount, want.Overhead, want.Time)
	}
	if got.Registry == nil {
		return nil
	}
	live := make(map[string]obs.MetricValue)
	for _, m := range want.Registry.Snapshot() {
		if !engineOnly(m.Name) {
			live[m.Name] = m
		}
	}
	for _, m := range got.Registry.Snapshot() {
		if !reflect.DeepEqual(m, live[m.Name]) {
			return fmt.Errorf("metric %s = %+v, live %+v", m.Name, m, live[m.Name])
		}
		delete(live, m.Name)
	}
	for name := range live {
		return fmt.Errorf("metric %s missing; the live run publishes it", name)
	}
	return nil
}

// TestFusedReplayMatchesLive: every member of the fused groups of one
// replay pass equals the live run of its configuration — profiles,
// breakdown, clock and metrics.  Every tQUAD group replays on a consumer
// whose clock panics when read; the group is then replayed once more by
// hand, on a host whose Time() panics, so the test does not rest on
// that.
func TestFusedReplayMatchesLive(t *testing.T) {
	s := newStudy(t, obs.NewObserver())
	cfgs := fusionConfigs()
	tracePath := filepath.Join(t.TempDir(), "small.etrace")

	replay := study.NewScheduler(s, 2)
	defer replay.Close()
	replay.SetTraceSink(tracePath)
	pend := make([]*study.Pending, len(cfgs))
	for i, cfg := range cfgs {
		pend[i] = replay.Submit(cfg)
	}
	got, err := study.WaitAll(pend...)
	if err != nil {
		t.Fatal(err)
	}
	if n := replay.DecodePasses(); n != 1 {
		t.Errorf("%d configurations used %d decode passes, want 1", len(cfgs), n)
	}

	live := study.NewScheduler(s, 2)
	defer live.Close()
	live.SetReplay(false)
	for i, cfg := range cfgs {
		pend[i] = live.Submit(cfg)
	}
	want, err := study.WaitAll(pend...)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		if err := sameRun(got[i], want[i]); err != nil {
			t.Errorf("%s: replayed run differs from the live one: %v", cfg.Key(), err)
		}
	}

	// The stack-excluding two-level-cache group, by hand.
	group := cfgs[9:12]
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := etrace.NewParallelReplayer(f, fi.Size(), etrace.ParallelOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := pr.NewConsumer()
	tools, err := study.AttachGroup(noClock{c}, group)
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.Replay(); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	for i, ts := range tools {
		res := ts.Collect(c.ICount(), ts.Overhead(), nil)
		w := *want[9+i]
		w.Registry = nil
		if err := sameRun(res, &w); err != nil {
			t.Errorf("%s on a clockless host: %v", group[i].Key(), err)
		}
	}
}

// noClock is a replay consumer whose Time() panics.
type noClock struct{ *etrace.Consumer }

func (noClock) Time() uint64 { panic("fusion test: an analysis routine read the shared clock") }

// TestFusedGroupFailsAlone: an attach error in a group's shared tools
// fails every member of that group, and no other run of the pass.
func TestFusedGroupFailsAlone(t *testing.T) {
	sch := study.NewScheduler(newStudy(t, nil), 2)
	defer sch.Close()
	bad := []study.RunConfig{
		{Kind: study.RunTQUAD, SliceInterval: 50_000, IncludeStack: true, Cache: "bogus"},
		{Kind: study.RunTQUAD, SliceInterval: 300_000, IncludeStack: true, Cache: "bogus"},
	}
	good := study.RunConfig{Kind: study.RunTQUAD, SliceInterval: 50_000, IncludeStack: true}
	pend := []*study.Pending{sch.Submit(bad[0]), sch.Submit(bad[1]), sch.Submit(good)}
	for i, cfg := range bad {
		if _, err := pend[i].Wait(); err == nil || !strings.Contains(err.Error(), "cache config") {
			t.Errorf("%s: err = %v, want the cache config error", cfg.Key(), err)
		}
	}
	if _, err := pend[2].Wait(); err != nil {
		t.Errorf("%s failed with its pass's other group: %v", good.Key(), err)
	}
	if n := sch.DecodePasses(); n != 1 {
		t.Errorf("%d decode passes, want 1", n)
	}
}
