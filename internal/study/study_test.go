package study_test

import (
	"strings"
	"testing"

	"tquad/internal/study"
	"tquad/internal/wfs"
)

var (
	shared    *study.Study
	sharedSch *study.Scheduler
)

// get returns the shared small-configuration study and a live scheduler
// over it, which memoises runs across tests.
func get(t *testing.T) (*study.Study, *study.Scheduler) {
	t.Helper()
	if shared == nil {
		s, err := study.New(wfs.Small())
		if err != nil {
			t.Fatal(err)
		}
		shared = s
		sharedSch = study.NewScheduler(s, 0)
		sharedSch.SetReplay(false)
	}
	return shared, sharedSch
}

// run executes one configuration on the shared scheduler.
func run(t *testing.T, cfg study.RunConfig) *study.RunResult {
	t.Helper()
	_, sch := get(t)
	res, err := sch.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNativeICountCached(t *testing.T) {
	s, _ := get(t)
	a, err := s.NativeICount()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.NativeICount()
	if err != nil {
		t.Fatal(err)
	}
	if a == 0 || a != b {
		t.Fatalf("NativeICount unstable: %d vs %d", a, b)
	}
}

func TestSliceForCount(t *testing.T) {
	s, sch := get(t)
	iv, err := sch.SliceForCount(64)
	if err != nil {
		t.Fatal(err)
	}
	ic, _ := s.NativeICount()
	slices := ic / iv
	if slices < 60 || slices > 70 {
		t.Fatalf("SliceForCount(64) yields %d slices", slices)
	}
}

func TestRenderTableIContainsKernels(t *testing.T) {
	out := study.RenderTableI(run(t, study.RunConfig{Kind: study.RunFlat}).Flat)
	for _, k := range []string{"wav_store", "fft1d", "bitrev", "calls"} {
		if !strings.Contains(out, k) {
			t.Errorf("Table I missing %q", k)
		}
	}
	// Library routines must not leak into the kernel table.
	for _, lib := range []string{"memcpy", "write_all", "read_full"} {
		if strings.Contains(out, lib) {
			t.Errorf("Table I leaked library routine %q", lib)
		}
	}
}

func TestRenderTableII(t *testing.T) {
	excl := run(t, study.RunConfig{Kind: study.RunQUAD, IncludeStack: false}).Quad
	incl := run(t, study.RunConfig{Kind: study.RunQUAD, IncludeStack: true}).Quad
	out := study.RenderTableII(excl, incl)
	for _, col := range []string{"IN(ex)", "OUT UnMA(in)", "AudioIo_setFrames", "zeroRealVec"} {
		if !strings.Contains(out, col) {
			t.Errorf("Table II missing %q", col)
		}
	}
}

// TestQUADExcludeLibs: a library-excluding QUAD run attributes library
// routines' traffic to their callers, so no library routine reports.
func TestQUADExcludeLibs(t *testing.T) {
	all := run(t, study.RunConfig{Kind: study.RunQUAD, IncludeStack: true}).Quad
	mainOnly := run(t, study.RunConfig{Kind: study.RunQUAD, IncludeStack: true, ExcludeLibs: true}).Quad
	if _, ok := all.Kernel("write_all"); !ok {
		t.Fatal("write_all missing from the all-routines QUAD report")
	}
	if _, ok := mainOnly.Kernel("write_all"); ok {
		t.Error("write_all reported by the library-excluding QUAD run")
	}
}

func TestRenderTableIIIAndFigure(t *testing.T) {
	_, sch := get(t)
	base := run(t, study.RunConfig{Kind: study.RunFlat}).Flat
	instr := run(t, study.RunConfig{Kind: study.RunInstrFlat}).Flat
	out := study.RenderTableIII(base, instr)
	if !strings.Contains(out, "trend") || !strings.Contains(out, "AudioIo_setFrames") {
		t.Errorf("Table III malformed:\n%s", out)
	}

	iv, _ := sch.SliceForCount(64)
	prof := run(t, study.RunConfig{Kind: study.RunTQUAD, SliceInterval: iv, IncludeStack: true}).Temporal
	fig := study.RenderFigure("fig", prof, wfs.TopTenKernels(), true, true, 64)
	if !strings.Contains(fig, "wav_store") || !strings.Contains(fig, "peak=") {
		t.Errorf("figure malformed:\n%s", fig)
	}
}

func TestRenderTableIVAndSlowdown(t *testing.T) {
	s, sch := get(t)
	prof := run(t, study.RunConfig{Kind: study.RunTQUAD, SliceInterval: 5000, IncludeStack: true}).Temporal
	phases := s.PhasesFromProfile(prof)
	out := study.RenderTableIV(phases, prof.NumSlices)
	if !strings.Contains(out, "phase 1") || !strings.Contains(out, "aggregate MBW") {
		t.Errorf("Table IV malformed:\n%s", out)
	}
	// Phase percentages must sum to ~100.
	var spans uint64
	for _, ph := range phases {
		spans += ph.Span()
	}
	if spans != prof.NumSlices {
		t.Errorf("phase spans %d != total slices %d", spans, prof.NumSlices)
	}

	ic, _ := s.NativeICount()
	rows, err := sch.Slowdown([]uint64{ic / 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 1 interval x 2 stack modes + 2 QUAD rows
		t.Fatalf("slowdown rows = %d", len(rows))
	}
	sd := study.RenderSlowdown(rows)
	if !strings.Contains(sd, "tQUAD") || !strings.Contains(sd, "QUAD") || !strings.Contains(sd, "x") {
		t.Errorf("slowdown table malformed:\n%s", sd)
	}
}
