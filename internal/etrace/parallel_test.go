package etrace_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"tquad/internal/core"
	"tquad/internal/etrace"
	"tquad/internal/flatprof"
	"tquad/internal/pin"
	"tquad/internal/trace"
	"tquad/internal/vm"
)

// coreProfile replays rec through a solo Jobs 1 replay with one core
// tool attached and returns the serialised profile plus final state.
func coreProfile(t *testing.T, rec *recorded, includeStack bool) ([]byte, solo) {
	t.Helper()
	rp := replayer(t, rec)
	tool := core.Attach(rp, core.Options{SliceInterval: 10_000, IncludeStack: includeStack})
	if err := rp.Replay(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.SaveTemporal(&buf, tool.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rp
}

// TestParallelMatchesSequential: for every worker count and both stack
// policies, an indexed replay must be byte-identical to the inline-decode
// (Jobs 1) replay — same profile serialisation, same final machine state.
func TestParallelMatchesSequential(t *testing.T) {
	t.Parallel()
	rec := record(t)
	if idx, err := etrace.ReadIndex(bytes.NewReader(rec.data), int64(len(rec.data))); err != nil || idx == nil {
		t.Fatalf("fresh recording lacks a footer index: %v", err)
	}
	for _, includeStack := range []bool{true, false} {
		want, seq := coreProfile(t, rec, includeStack)
		for _, jobs := range []int{1, 2, 4, 0} {
			pr, err := etrace.NewParallelReplayer(bytes.NewReader(rec.data), int64(len(rec.data)),
				etrace.ParallelOptions{Jobs: jobs})
			if err != nil {
				t.Fatal(err)
			}
			host := pr.NewConsumer()
			tool := core.Attach(host, core.Options{SliceInterval: 10_000, IncludeStack: includeStack})
			if err := pr.Replay(); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := trace.SaveTemporal(&got, tool.Snapshot()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("jobs=%d stack=%v: profile differs from the jobs=1 replay", jobs, includeStack)
			}
			if host.ICount() != seq.ICount() || host.Time() != seq.Time() ||
				host.ExitCode() != seq.ExitCode() || host.Halted() != seq.Halted() ||
				host.MemStats() != seq.MemStats() {
				t.Errorf("jobs=%d stack=%v: parallel final state differs", jobs, includeStack)
			}
		}
	}
}

// TestParallelFanOut: one decode pass drives several differently
// configured consumers, each matching its own dedicated solo replay
// exactly.
func TestParallelFanOut(t *testing.T) {
	t.Parallel()
	rec := record(t)
	pr, err := etrace.NewParallelReplayer(bytes.NewReader(rec.data), int64(len(rec.data)),
		etrace.ParallelOptions{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	inclHost := pr.NewConsumer()
	incl := core.Attach(inclHost, core.Options{SliceInterval: 10_000, IncludeStack: true})
	exclHost := pr.NewConsumer()
	excl := core.Attach(exclHost, core.Options{SliceInterval: 10_000, IncludeStack: false})
	flatHost := pr.NewConsumer()
	flat := flatprof.Attach(flatHost, flatprof.Options{})
	if err := pr.Replay(); err != nil {
		t.Fatal(err)
	}

	wantIncl, _ := coreProfile(t, rec, true)
	wantExcl, _ := coreProfile(t, rec, false)
	for name, pair := range map[string][2][]byte{
		"include-stack": {marshalProfile(t, incl.Snapshot()), wantIncl},
		"exclude-stack": {marshalProfile(t, excl.Snapshot()), wantExcl},
	} {
		if !bytes.Equal(pair[0], pair[1]) {
			t.Errorf("%s consumer differs from its solo replay", name)
		}
	}

	seqFlatHost := replayer(t, rec)
	seqFlat := flatprof.Attach(seqFlatHost, flatprof.Options{})
	if err := seqFlatHost.Replay(); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := trace.SaveFlat(&a, flat.Report()); err != nil {
		t.Fatal(err)
	}
	if err := trace.SaveFlat(&b, seqFlat.Report()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("flatprof consumer differs from its solo replay")
	}
}

func marshalProfile(t *testing.T, prof *core.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.SaveTemporal(&buf, prof); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelV1Fallback: a footer-less trace (anything recorded before
// the index existed) replays through the frame-scan index with identical
// results.
func TestParallelV1Fallback(t *testing.T) {
	rec := record(t)
	idx, err := etrace.ReadIndex(bytes.NewReader(rec.data), int64(len(rec.data)))
	if err != nil || idx == nil {
		t.Fatalf("footer index: %v", err)
	}
	v1 := rec.data[:idx.DataEnd] // strip the footer: a v1 trace
	if idx, err := etrace.ReadIndex(bytes.NewReader(v1), int64(len(v1))); err != nil || idx != nil {
		t.Fatalf("stripped trace still carries a footer index: %v", err)
	}

	want, seq := coreProfile(t, rec, true)
	pr, err := etrace.NewParallelReplayer(bytes.NewReader(v1), int64(len(v1)), etrace.ParallelOptions{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	host := pr.NewConsumer()
	tool := core.Attach(host, core.Options{SliceInterval: 10_000, IncludeStack: true})
	if err := pr.Replay(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalProfile(t, tool.Snapshot()), want) {
		t.Error("v1 fallback replay differs from the footer-indexed replay")
	}
	if host.ICount() != seq.ICount() {
		t.Errorf("v1 fallback ICount %d, footer-indexed %d", host.ICount(), seq.ICount())
	}
}

// TestParallelCancel: a cancelled context stops the replay with a
// vm.CancelError, mirroring how a live machine surfaces cancellation.
func TestParallelCancel(t *testing.T) {
	rec := record(t)
	pr, err := etrace.NewParallelReplayer(bytes.NewReader(rec.data), int64(len(rec.data)),
		etrace.ParallelOptions{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	pr.NewConsumer()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = pr.ReplayContext(ctx)
	var ce *vm.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("cancelled replay returned %v, want *vm.CancelError", err)
	}
}

// TestParallelProgress mirrors TestReplayOnProgress with a decode worker
// pool: monotonic heartbeat, never past the recorded count.
func TestParallelProgress(t *testing.T) {
	rec := record(t)
	pr, err := etrace.NewParallelReplayer(bytes.NewReader(rec.data), int64(len(rec.data)),
		etrace.ParallelOptions{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	pr.NewConsumer()
	var beats []uint64
	pr.OnProgress(func(ic uint64) { beats = append(beats, ic) })
	if err := pr.Replay(); err != nil {
		t.Fatal(err)
	}
	if len(beats) == 0 {
		t.Fatal("progress callback never fired")
	}
	for i := 1; i < len(beats); i++ {
		if beats[i] < beats[i-1] {
			t.Fatalf("progress went backwards: %d then %d", beats[i-1], beats[i])
		}
	}
	if last := beats[len(beats)-1]; last > rec.icount {
		t.Errorf("progress %d exceeds recorded icount %d", last, rec.icount)
	}
}

// TestParallelReplayTwiceFails: a replayer with a decode worker pool is
// single-use too.
func TestParallelReplayTwiceFails(t *testing.T) {
	rec := record(t)
	pr, err := etrace.NewParallelReplayer(bytes.NewReader(rec.data), int64(len(rec.data)),
		etrace.ParallelOptions{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	pr.NewConsumer()
	if err := pr.Replay(); err != nil {
		t.Fatal(err)
	}
	if err := pr.Replay(); err == nil {
		t.Error("second Replay did not error")
	}
}

// TestParallelPanicIsolated: an analysis routine that panics mid-replay
// fails its own consumer only.  Replay returns the *PanicError (stack
// attached) instead of crashing the process, the panicking consumer's
// Err reports it, and the healthy consumer sharing the pass finishes
// with a profile identical to its solo replay.
func TestParallelPanicIsolated(t *testing.T) {
	t.Parallel()
	rec := record(t)
	want, _ := coreProfile(t, rec, true)
	for _, jobs := range []int{1, 2} {
		pr, err := etrace.NewParallelReplayer(bytes.NewReader(rec.data), int64(len(rec.data)),
			etrace.ParallelOptions{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		bad := pr.NewConsumer()
		calls := 0
		bad.INSAddInstrumentFunction(func(ins *pin.INS) {
			ins.InsertCall(func(*pin.Context) {
				if calls++; calls == 5000 {
					panic("analysis routine blew up")
				}
			})
		})
		good := pr.NewConsumer()
		tool := core.Attach(good, core.Options{SliceInterval: 10_000, IncludeStack: true})

		err = pr.Replay()
		var pe *etrace.PanicError
		if !errors.As(err, &pe) || pe.Value != "analysis routine blew up" {
			t.Fatalf("jobs=%d: Replay returned %v, want the consumer's *PanicError", jobs, err)
		}
		if !bytes.Contains(pe.Stack, []byte("goroutine")) {
			t.Errorf("jobs=%d: panic error carries no stack", jobs)
		}
		if bad.Err() != err {
			t.Errorf("jobs=%d: panicking consumer's Err = %v, want the panic", jobs, bad.Err())
		}
		if good.Err() != nil {
			t.Fatalf("jobs=%d: healthy consumer failed: %v", jobs, good.Err())
		}
		if !bytes.Equal(marshalProfile(t, tool.Snapshot()), want) {
			t.Errorf("jobs=%d: healthy consumer's profile differs from its solo replay", jobs)
		}
		if good.ICount() != rec.icount {
			t.Errorf("jobs=%d: healthy consumer replayed %d instructions, recorded %d", jobs, good.ICount(), rec.icount)
		}
	}
}

// FuzzIndex drives arbitrary bytes through the indexed replay pipeline,
// with an independent oracle: WalkFrames decodes by walking the chunk
// frames and ignores the index.  The contract: never a panic or hang;
// and whenever the indexed replay succeeds, the frame walk succeeds on
// the same bytes with the identical final state, and Stat reports the
// trace intact with that final state too.  (The frame walk need not
// hold the other way: the indexed replay additionally rejects
// non-canonical chunk length prefixes, mid-trace end records and index
// hints that a pure stream decode cannot check.)
func FuzzIndex(f *testing.F) {
	data := bytes.Clone(record(f).data)
	f.Add(data)
	if idx, err := etrace.ReadIndex(bytes.NewReader(data), int64(len(data))); err == nil && idx != nil {
		f.Add(data[:idx.DataEnd])                  // footer stripped: v1 shape
		f.Add(data[:idx.DataEnd+4])                // cut mid-footer
		f.Add(append(data[:idx.DataEnd], data...)) // doubled stream
		half := data[:idx.Chunks[len(idx.Chunks)/2].Offset]
		f.Add(half) // cut at a chunk boundary
	}
	f.Add(data[:64])
	f.Add([]byte("TQIX"))
	f.Fuzz(func(t *testing.T, b []byte) {
		pr, err := etrace.NewParallelReplayer(bytes.NewReader(b), int64(len(b)), etrace.ParallelOptions{Jobs: 2})
		if err != nil {
			return
		}
		par := pr.NewConsumer()
		if pr.Replay() != nil {
			return
		}
		// The indexed replay accepted the input: the frame walk must agree.
		ic, exit, halted, err := etrace.WalkFrames(b)
		if err != nil {
			t.Fatalf("indexed replay succeeded, the frame walk failed: %v", err)
		}
		if par.ICount() != ic || par.ExitCode() != exit || par.Halted() != halted {
			t.Fatalf("indexed replay (ic=%d exit=%d halted=%v) and the frame walk (ic=%d exit=%d halted=%v) disagree on final state",
				par.ICount(), par.ExitCode(), par.Halted(), ic, exit, halted)
		}
		// And Stat, which shares the replay's chunk location and decoder,
		// must call it intact.
		info, err := etrace.Stat(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			t.Fatalf("indexed replay succeeded, Stat failed: %v", err)
		}
		if info.Damaged() {
			t.Fatalf("indexed replay succeeded, Stat reports damage: %d bad chunks, index error %q, %d bytes lost, complete %v",
				info.Bad, info.IndexErr, info.LostTailBytes, info.Complete)
		}
		if info.FinalICount != ic || info.ExitCode != exit || info.Halted != halted {
			t.Fatalf("indexed replay (ic=%d exit=%d halted=%v) and Stat (ic=%d exit=%d halted=%v) disagree on final state",
				ic, exit, halted, info.FinalICount, info.ExitCode, info.Halted)
		}
	})
}
