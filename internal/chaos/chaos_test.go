package chaos

import (
	"bytes"
	"context"
	"errors"
	"io"
	"syscall"
	"testing"

	"tquad/internal/study"
	"tquad/internal/vm"
)

// TestSeededDecisionsDeterministic: the FailRate roll is a pure function
// of (seed, key, attempt) — two injectors with the same plan agree on
// every decision, and a different seed diverges somewhere.
func TestSeededDecisionsDeterministic(t *testing.T) {
	keys := []string{"native", "flat", "quad/stack=include", "tquad/slice=1000/stack=include/libs=all/prefetch=fast"}
	a := New(Plan{Seed: 1, FailRate: 0.5})
	b := New(Plan{Seed: 1, FailRate: 0.5})
	c := New(Plan{Seed: 2, FailRate: 0.5})
	diverged := false
	for _, k := range keys {
		for attempt := 0; attempt < 16; attempt++ {
			if a.WouldFail(k, attempt) != b.WouldFail(k, attempt) {
				t.Fatalf("same seed diverged at (%s, %d)", k, attempt)
			}
			if a.WouldFail(k, attempt) != c.WouldFail(k, attempt) {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Error("seeds 1 and 2 made identical decisions everywhere")
	}
}

// TestFailRateBounds: rate 0 never fails, rate 1 always fails.
func TestFailRateBounds(t *testing.T) {
	never := New(Plan{Seed: 7})
	always := New(Plan{Seed: 7, FailRate: 1})
	for attempt := 0; attempt < 8; attempt++ {
		if never.WouldFail("k", attempt) {
			t.Fatal("FailRate 0 injected a failure")
		}
		if !always.WouldFail("k", attempt) {
			t.Fatal("FailRate 1 skipped a failure")
		}
	}
}

// TestBeforeRunAttemptBudget: FailConfigs fails exactly the leading
// attempts, transiently, and then lets the run through.
func TestBeforeRunAttemptBudget(t *testing.T) {
	in := New(Plan{FailConfigs: map[string]int{"native": 2}})
	hooks := in.Hooks()
	cfg := study.RunConfig{Kind: study.RunNative}
	for attempt := 0; attempt < 4; attempt++ {
		err := hooks.BeforeRun(context.Background(), cfg, attempt)
		if attempt < 2 {
			if !errors.Is(err, ErrInjected) || !study.IsTransient(err) {
				t.Fatalf("attempt %d: err = %v, want transient injected fault", attempt, err)
			}
		} else if err != nil {
			t.Fatalf("attempt %d: err = %v, want success", attempt, err)
		}
	}
}

// TestFlakyWriterBudget: the writer delivers exactly its byte budget,
// then fails permanently; the recordWriter hook consumes one failure
// from the plan's budget per attempt.
func TestFlakyWriterBudget(t *testing.T) {
	in := New(Plan{RecordFailures: 1, RecordFailAfter: 10})
	var buf bytes.Buffer
	w := in.Hooks().RecordWriter(&buf)
	if _, err := w.Write(make([]byte, 8)); err != nil {
		t.Fatalf("write within budget failed: %v", err)
	}
	if n, err := w.Write(make([]byte, 8)); !errors.Is(err, ErrInjected) || n != 2 {
		t.Fatalf("budget-crossing write: n=%d err=%v, want n=2 injected fault", n, err)
	}
	if _, err := w.Write([]byte{0}); !errors.Is(err, ErrInjected) {
		t.Fatal("writer recovered after failing")
	}
	if buf.Len() != 10 {
		t.Fatalf("wrote %d bytes through, want exactly the 10-byte budget", buf.Len())
	}
	// Budget of one failing attempt is spent: the next attempt's writer
	// is the raw destination.
	if w2 := in.Hooks().RecordWriter(&buf); w2 != io.Writer(&buf) {
		t.Error("second record attempt still got a flaky writer")
	}
}

// TestBitFlipsDeterministic: same (seed, n, size) means same offsets,
// all in range; a different seed diverges.
func TestBitFlipsDeterministic(t *testing.T) {
	a := BitFlips(3, 8, 1000)
	b := BitFlips(3, 8, 1000)
	c := BitFlips(4, 8, 1000)
	if len(a) != 8 {
		t.Fatalf("got %d offsets, want 8", len(a))
	}
	diverged := false
	for i := range a {
		if a[i] < 0 || a[i] >= 1000 {
			t.Fatalf("offset %d out of [0,1000)", a[i])
		}
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
		if a[i] != c[i] {
			diverged = true
		}
	}
	if !diverged {
		t.Error("seeds 3 and 4 chose identical offsets everywhere")
	}
	if BitFlips(1, 0, 100) != nil || BitFlips(1, 4, 0) != nil {
		t.Error("degenerate BitFlips should be nil")
	}
}

// TestCorruptWriterFlips: flips land at their absolute stream offsets
// regardless of write sizing, the writer reports full success, and the
// caller's buffer is never mutated.
func TestCorruptWriterFlips(t *testing.T) {
	src := bytes.Repeat([]byte{0xAA}, 64)
	for _, chunk := range []int{64, 7, 1} {
		var buf bytes.Buffer
		cw := &corruptWriter{w: &buf, flips: []int64{0, 13, 63}}
		for off := 0; off < len(src); off += chunk {
			end := off + chunk
			if end > len(src) {
				end = len(src)
			}
			n, err := cw.Write(src[off:end])
			if err != nil || n != end-off {
				t.Fatalf("chunk=%d: write: n=%d err=%v", chunk, n, err)
			}
		}
		got := buf.Bytes()
		for _, f := range []int64{0, 13, 63} {
			want := src[f] ^ (1 << uint(f&7))
			if got[f] != want {
				t.Errorf("chunk=%d: offset %d = %#x, want flipped %#x", chunk, f, got[f], want)
			}
		}
		diff := 0
		for i := range got {
			if got[i] != src[i] {
				diff++
			}
		}
		if diff != 3 {
			t.Errorf("chunk=%d: %d bytes differ, want exactly the 3 flips", chunk, diff)
		}
		if !bytes.Equal(src, bytes.Repeat([]byte{0xAA}, 64)) {
			t.Fatalf("chunk=%d: caller's buffer was mutated", chunk)
		}
	}
}

// TestCorruptWriterTornTail: writes past the tear report success but
// never land — and the writer keeps "succeeding" forever after.
func TestCorruptWriterTornTail(t *testing.T) {
	var buf bytes.Buffer
	cw := &corruptWriter{w: &buf, torn: 10}
	if n, err := cw.Write(make([]byte, 8)); err != nil || n != 8 {
		t.Fatalf("pre-tear write: n=%d err=%v", n, err)
	}
	if n, err := cw.Write(make([]byte, 8)); err != nil || n != 8 {
		t.Fatalf("tear-crossing write must still report success: n=%d err=%v", n, err)
	}
	if n, err := cw.Write(make([]byte, 8)); err != nil || n != 8 {
		t.Fatalf("post-tear write must still report success: n=%d err=%v", n, err)
	}
	if buf.Len() != 10 {
		t.Fatalf("%d bytes landed, want exactly the 10 before the tear", buf.Len())
	}
}

// TestCorruptWriterENOSPC: the boundary write delivers its prefix and
// fails with a real ENOSPC errno under the injected wrapper.
func TestCorruptWriterENOSPC(t *testing.T) {
	var buf bytes.Buffer
	cw := &corruptWriter{w: &buf, enospcAfter: 10}
	if _, err := cw.Write(make([]byte, 8)); err != nil {
		t.Fatalf("write within space: %v", err)
	}
	n, err := cw.Write(make([]byte, 8))
	if n != 2 || !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("boundary write: n=%d err=%v, want n=2 injected ENOSPC", n, err)
	}
	if _, err := cw.Write([]byte{0}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("the disk stays full: %v", err)
	}
	if buf.Len() != 10 {
		t.Fatalf("%d bytes landed, want 10", buf.Len())
	}
}

// TestCorruptionBudget: RecordCorruptions caps how many record attempts
// get a corrupting writer; zero means every attempt (when faults are
// configured) and a fault-free plan never corrupts.
func TestCorruptionBudget(t *testing.T) {
	var buf bytes.Buffer
	in := New(Plan{RecordFlipOffsets: []int64{1}, RecordCorruptions: 1})
	if _, ok := in.Hooks().RecordWriter(&buf).(*corruptWriter); !ok {
		t.Fatal("first attempt did not get a corrupting writer")
	}
	if w := in.Hooks().RecordWriter(&buf); w != io.Writer(&buf) {
		t.Fatal("second attempt still got a corrupting writer")
	}
	every := New(Plan{RecordTornTail: 5})
	for i := 0; i < 3; i++ {
		if _, ok := every.Hooks().RecordWriter(&buf).(*corruptWriter); !ok {
			t.Fatalf("attempt %d: zero budget should corrupt every attempt", i)
		}
	}
	if w := New(Plan{}).Hooks().RecordWriter(&buf); w != io.Writer(&buf) {
		t.Fatal("fault-free plan wrapped the writer")
	}
}

// TestReplayTruncate: the replayed trace's size is capped at the plan's
// budget, and a trace already shorter is left alone.
func TestReplayTruncate(t *testing.T) {
	in := New(Plan{ReplayTruncate: 4})
	if _, size := in.Hooks().ReplayReader(bytes.NewReader(make([]byte, 100)), 100); size != 4 {
		t.Fatalf("replay size %d, want 4", size)
	}
	if _, size := in.Hooks().ReplayReader(bytes.NewReader(make([]byte, 3)), 3); size != 3 {
		t.Fatalf("replay size %d, want the untruncated 3", size)
	}
}

// TestWatchdogTrap: the machine hook installs a watchdog that trips at
// the planned instruction count.
func TestWatchdogTrap(t *testing.T) {
	in := New(Plan{TrapAt: 100})
	m := vm.New()
	in.Hooks().Machine(context.Background(), m)
	if m.Watchdog == nil {
		t.Fatal("no watchdog installed")
	}
	if err := m.Watchdog(m); err != nil {
		t.Fatalf("watchdog fired at icount 0: %v", err)
	}
	m.ICount = 100
	if err := m.Watchdog(m); !errors.Is(err, ErrInjected) {
		t.Fatalf("watchdog at icount 100: %v, want injected fault", err)
	}
	// TrapAt 0 installs nothing.
	m2 := vm.New()
	New(Plan{}).Hooks().Machine(context.Background(), m2)
	if m2.Watchdog != nil {
		t.Error("zero plan installed a watchdog")
	}
}

// TestHangHonoursContext: a hang releases as soon as the run context is
// cancelled, returning its error.
func TestHangHonoursContext(t *testing.T) {
	in := New(Plan{HangConfigs: []string{"native"}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := in.Hooks().BeforeRun(ctx, study.RunConfig{Kind: study.RunNative}, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("hang returned %v, want context.Canceled", err)
	}
}
