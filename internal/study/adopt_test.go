package study_test

// The scheduler's trace source and sink: a recording one scheduler
// persists to its sink is adopted by another as its trace source, intact,
// damaged and salvaged.

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tquad/internal/etrace"
	"tquad/internal/obs"
	"tquad/internal/study"
	"tquad/internal/trace"
)

// recordTo records the study's guest into path through a scheduler's
// trace sink.
func recordTo(t *testing.T, s *study.Study, path string) {
	t.Helper()
	sch := study.NewScheduler(s, 2)
	defer sch.Close()
	sch.SetTraceSink(path)
	if _, err := sch.Run(study.RunConfig{Kind: study.RunNative}); err != nil {
		t.Fatal(err)
	}
}

// damagedCopy copies the trace at path and flips one byte halfway into
// the payload of the copy's middle chunk.
func damagedCopy(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := etrace.ReadIndex(bytes.NewReader(b), int64(len(b)))
	if err != nil || idx == nil || len(idx.Chunks) < 3 {
		t.Fatalf("index of %s: %v (%v)", path, idx, err)
	}
	c := idx.Chunks[len(idx.Chunks)/2]
	b[c.Offset+int64(len(binary.AppendUvarint(nil, uint64(c.Size))))+c.Size/2] ^= 0xff
	damaged := filepath.Join(t.TempDir(), "damaged.etrace")
	if err := os.WriteFile(damaged, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return damaged
}

// sweepGrid submits a 3-interval × 2-cache sweep with explicit slices.
func sweepGrid(t *testing.T, sch *study.Scheduler) ([]uint64, []*study.Pending) {
	t.Helper()
	ivs, pend, err := sch.SubmitSweep([]uint64{100_000, 200_000, 400_000},
		[]string{"l1=1024/2/64", "l1=4096/4/64,l2=32768/8/64"}, true, false)
	if err != nil {
		t.Fatal(err)
	}
	return ivs, pend
}

// unchanged fails the test unless the file at path still holds want.
func unchanged(t *testing.T, path string, want []byte) {
	t.Helper()
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Errorf("the adopted trace %s changed (%v)", path, err)
	}
}

// TestSchedulerTraceSource: a trace one scheduler recorded to its sink,
// adopted by others as their trace source.  Intact, a sweep off it
// executes the guest zero times, decodes it once, and profiles exactly
// as a live scheduler does.  Damaged, it fails every run as corrupt
// without a guest execution or a re-recording; under salvage the same
// runs succeed, each with the damage reported.  Either way the adopted
// file stays byte for byte as it was, and the dashboard's replay budget
// is the recorded instruction total: etrace.Stat reads it from the end
// record past the damaged chunk, so damage mid-payload does not hide it.
func TestSchedulerTraceSource(t *testing.T) {
	s := newStudy(t, nil)
	path := filepath.Join(t.TempDir(), "guest.etrace")
	recordTo(t, s, path)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := etrace.Stat(bytes.NewReader(b), int64(len(b)))
	if err != nil || info.Damaged() {
		t.Fatalf("recorded trace: %v (%+v)", err, info)
	}
	// budget fails the test unless the adopted recording's events carry
	// the recorded instruction total.
	budget := func(t *testing.T, sink *collector) {
		t.Helper()
		for _, ev := range sink.events() {
			if ev.Key == "record/guest" && ev.Type == obs.EventSucceeded {
				if ev.ICount != info.FinalICount {
					t.Errorf("adopted trace budget %d, want the recorded %d", ev.ICount, info.FinalICount)
				}
				return
			}
		}
		t.Error("no succeeded event for the adopted recording")
	}

	t.Run("intact", func(t *testing.T) {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		report := func(sch *study.Scheduler) (string, []*study.RunResult) {
			ivs, pend := sweepGrid(t, sch)
			results, err := study.WaitAll(pend...)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			study.WriteSweepReport(&b, results, ivs, true, study.RenderOptions{Metric: "both", Kernels: "all", Width: 64, IncludeStack: true})
			return b.String(), results
		}
		sink := &collector{}
		adopted := study.NewScheduler(s, 2)
		adopted.SetTraceSource(path, false)
		adopted.SetEvents(sink)
		got, gotRes := report(adopted)
		adopted.Close()
		budget(t, sink)
		if n := adopted.GuestExecutions(); n != 0 {
			t.Errorf("adopted sweep executed the guest %d times, want 0", n)
		}
		if n := adopted.DecodePasses(); n != 1 {
			t.Errorf("adopted sweep decoded the trace %d times, want 1", n)
		}
		unchanged(t, path, want)

		live := study.NewScheduler(s, 2)
		live.SetReplay(false)
		defer live.Close()
		wantReport, wantRes := report(live)
		if got != wantReport {
			t.Errorf("adopted sweep report differs from the live one:\n--- adopted ---\n%s--- live ---\n%s", got, wantReport)
		}
		for i, res := range gotRes {
			var a, b strings.Builder
			trace.SaveTemporal(&a, res.Temporal)
			trace.SaveTemporal(&b, wantRes[i].Temporal)
			if a.String() != b.String() || res.Time != wantRes[i].Time || res.Salvage != nil {
				t.Errorf("%s: adopted profile differs from the live one (salvage %v)", res.Key, res.Salvage)
			}
		}
	})

	t.Run("damaged", func(t *testing.T) {
		damaged := damagedCopy(t, path)
		want, err := os.ReadFile(damaged)
		if err != nil {
			t.Fatal(err)
		}
		for _, salvage := range []bool{false, true} {
			o := obs.NewObserver()
			sink := &collector{}
			sch := study.NewScheduler(&study.Study{W: s.W, Obs: o}, 2)
			sch.SetTraceSource(damaged, salvage)
			sch.SetEvents(sink)
			_, pend := sweepGrid(t, sch)
			for _, p := range pend {
				res, err := p.Wait()
				switch {
				case !salvage && !etrace.IsCorrupt(err):
					t.Errorf("strict: run failed with %v, want a corrupt-trace error", err)
				case salvage && err != nil:
					t.Errorf("salvage: %v", err)
				case salvage && (res.Salvage == nil || !res.Salvage.Damaged()):
					t.Errorf("salvage: %s carries no damage report (%v)", res.Key, res.Salvage)
				}
			}
			sch.Close()
			budget(t, sink)
			if n := sch.GuestExecutions(); n != 0 {
				t.Errorf("salvage=%v: %d guest executions, want 0", salvage, n)
			}
			if n := o.Registry().Counter(obs.MetricSchedRerecords).Value(); n != 0 {
				t.Errorf("salvage=%v: %d re-recordings, want 0", salvage, n)
			}
			unchanged(t, damaged, want)
		}
	})
}
