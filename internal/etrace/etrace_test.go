package etrace_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"tquad/internal/core"
	"tquad/internal/etrace"
	"tquad/internal/flatprof"
	"tquad/internal/pin"
	"tquad/internal/quad"
	"tquad/internal/trace"
	"tquad/internal/vm"
	"tquad/internal/wfs"
)

// recorded holds one shared recording of the small WFS workload plus the
// live machine's final state, reused across the golden tests.
type recorded struct {
	data     []byte
	icount   uint64
	time     uint64
	pc       uint64
	exit     int64
	halted   bool
	memStats vm.MemStats
}

// The fixtures are built once per test binary and shared, read-only, by
// tests that run in parallel: the heavy replay tests call t.Parallel, so
// under -race they overlap on the host's CPUs instead of queueing.
var (
	recordMu   sync.Mutex
	smallTrace *recorded
)

// record captures the small workload once per test binary.
func record(tb testing.TB) *recorded {
	tb.Helper()
	recordMu.Lock()
	defer recordMu.Unlock()
	if smallTrace != nil {
		return smallTrace
	}
	m, _ := workload(tb).NewMachine()
	smallTrace = &recorded{
		data:     capture(tb, m, etrace.RecordOptions{Workload: "wfs/small"}),
		icount:   m.ICount,
		time:     m.Time(),
		pc:       m.PC,
		exit:     m.ExitCode,
		halted:   m.Halted,
		memStats: m.MemStats,
	}
	return smallTrace
}

// capture records one run of m to its end and returns the trace.
func capture(tb testing.TB, m *vm.Machine, opts etrace.RecordOptions) []byte {
	tb.Helper()
	var buf bytes.Buffer
	rec, err := etrace.Record(pin.NewEngine(m), &buf, opts)
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.Run(wfs.MaxInstr); err != nil {
		tb.Fatal(err)
	}
	if err := rec.Finish(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

var (
	workloadMu    sync.Mutex
	smallWorkload *wfs.Workload
)

func workload(tb testing.TB) *wfs.Workload {
	tb.Helper()
	workloadMu.Lock()
	defer workloadMu.Unlock()
	if smallWorkload == nil {
		w, err := wfs.NewWorkload(wfs.Small())
		if err != nil {
			tb.Fatal(err)
		}
		smallWorkload = w
	}
	return smallWorkload
}

// solo is a single-consumer replay with inline decode (Jobs 1): attach
// tools to its embedded Consumer, then call Replay.
type solo struct {
	*etrace.Consumer
	pr *etrace.ParallelReplayer
}

func (s solo) Replay() error                 { return s.pr.Replay() }
func (s solo) OnProgress(fn func(ic uint64)) { s.pr.OnProgress(fn) }

// openSolo opens data for a solo replay.
func openSolo(data []byte, salvage bool) (solo, error) {
	pr, err := etrace.NewParallelReplayer(bytes.NewReader(data), int64(len(data)),
		etrace.ParallelOptions{Jobs: 1, Salvage: salvage})
	if err != nil {
		return solo{}, err
	}
	return solo{Consumer: pr.NewConsumer(), pr: pr}, nil
}

func replayer(t *testing.T, rec *recorded) solo {
	t.Helper()
	rp, err := openSolo(rec.data, false)
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

// TestReplayOnProgress: a registered progress callback receives a
// monotonic stream of replayed instruction counts even with no
// cancellable context attached — the live dashboard's replay heartbeat.
func TestReplayOnProgress(t *testing.T) {
	rec := record(t)
	rp := replayer(t, rec)
	var beats []uint64
	rp.OnProgress(func(ic uint64) { beats = append(beats, ic) })
	if err := rp.Replay(); err != nil {
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

// TestReplayReproducesFinalState: the replayed machine state (counters,
// exit status, memory statistics) must equal the live run's.
func TestReplayReproducesFinalState(t *testing.T) {
	rec := record(t)
	rp := replayer(t, rec)
	if err := rp.Replay(); err != nil {
		t.Fatal(err)
	}
	if rp.ICount() != rec.icount {
		t.Errorf("replayed ICount %d, live %d", rp.ICount(), rec.icount)
	}
	if rp.CurrentPC() != rec.pc {
		t.Errorf("replayed final pc %#x, live %#x", rp.CurrentPC(), rec.pc)
	}
	if rp.ExitCode() != rec.exit || rp.Halted() != rec.halted {
		t.Errorf("replayed exit %d halted %v, live %d %v",
			rp.ExitCode(), rp.Halted(), rec.exit, rec.halted)
	}
	if got := rp.MemStats(); got != rec.memStats {
		t.Errorf("replayed MemStats %+v\nlive %+v", got, rec.memStats)
	}
}

// TestReplayMatchesLiveTQUAD is the golden equivalence gate: replayed
// tQUAD profiles must serialise byte-identically to live ones, and the
// simulated clocks must agree — at two slice intervals under both stack
// policies.
func TestReplayMatchesLiveTQUAD(t *testing.T) {
	t.Parallel()
	rec := record(t)
	w := workload(t)
	for _, iv := range []uint64{rec.icount / 64, rec.icount / 16} {
		for _, stack := range []bool{true, false} {
			opts := core.Options{SliceInterval: iv, IncludeStack: stack}

			m, _ := w.NewMachine()
			e := pin.NewEngine(m)
			liveTool := core.Attach(e, opts)
			if err := m.Run(wfs.MaxInstr); err != nil {
				t.Fatal(err)
			}
			var live bytes.Buffer
			if err := trace.SaveTemporal(&live, liveTool.Snapshot()); err != nil {
				t.Fatal(err)
			}

			rp := replayer(t, rec)
			replayTool := core.Attach(rp, opts)
			if err := rp.Replay(); err != nil {
				t.Fatal(err)
			}
			var replayed bytes.Buffer
			if err := trace.SaveTemporal(&replayed, replayTool.Snapshot()); err != nil {
				t.Fatal(err)
			}

			if !bytes.Equal(live.Bytes(), replayed.Bytes()) {
				t.Errorf("iv=%d stack=%v: replayed profile differs from live", iv, stack)
			}
			if m.Time() != rp.Time() {
				t.Errorf("iv=%d stack=%v: replayed clock %d, live %d", iv, stack, rp.Time(), m.Time())
			}
			if liveTool.Breakdown() != replayTool.Breakdown() {
				t.Errorf("iv=%d stack=%v: overhead breakdown differs:\nlive   %+v\nreplay %+v",
					iv, stack, liveTool.Breakdown(), replayTool.Breakdown())
			}
		}
	}
}

// TestReplayMatchesLiveFlatAndQUAD extends the golden gate to the other
// two tools.
func TestReplayMatchesLiveFlatAndQUAD(t *testing.T) {
	t.Parallel()
	rec := record(t)
	w := workload(t)

	m, _ := w.NewMachine()
	e := pin.NewEngine(m)
	liveFlat := flatprof.Attach(e, flatprof.Options{})
	liveQuad := quad.Attach(e, quad.Options{IncludeStack: true})
	if err := m.Run(wfs.MaxInstr); err != nil {
		t.Fatal(err)
	}

	rp := replayer(t, rec)
	repFlat := flatprof.Attach(rp, flatprof.Options{})
	repQuad := quad.Attach(rp, quad.Options{IncludeStack: true})
	if err := rp.Replay(); err != nil {
		t.Fatal(err)
	}

	var a, b bytes.Buffer
	if err := trace.SaveFlat(&a, liveFlat.Report()); err != nil {
		t.Fatal(err)
	}
	if err := trace.SaveFlat(&b, repFlat.Report()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("replayed flat profile differs from live")
	}

	a.Reset()
	b.Reset()
	if err := trace.SaveQUAD(&a, liveQuad.Report()); err != nil {
		t.Fatal(err)
	}
	if err := trace.SaveQUAD(&b, repQuad.Report()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("replayed QUAD report differs from live")
	}
	if m.Time() != rp.Time() {
		t.Errorf("replayed clock %d, live %d", rp.Time(), m.Time())
	}
}

// TestStatSummarises: the inspector must agree with the recording.
func TestStatSummarises(t *testing.T) {
	rec := record(t)
	info, err := etrace.Stat(bytes.NewReader(rec.data), int64(len(rec.data)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Damaged() || !info.Complete {
		t.Fatalf("intact trace reported damaged: %d bad chunks, index error %q, %d bytes lost, complete %v",
			info.Bad, info.IndexErr, info.LostTailBytes, info.Complete)
	}
	if !info.Indexed || len(info.Chunks) < 3 {
		t.Errorf("Indexed = %v over %d chunks, want a footer table", info.Indexed, len(info.Chunks))
	}
	if info.FinalICount != rec.icount || info.FinalPC != rec.pc ||
		info.ExitCode != rec.exit || info.Halted != rec.halted {
		t.Errorf("final state %+v does not match the live run", info)
	}
	if info.Workload != "wfs/small" {
		t.Errorf("workload %q", info.Workload)
	}
	if len(info.Routines) == 0 || info.Reads == 0 || info.Writes == 0 ||
		info.Calls == 0 || info.Returns == 0 || info.Statics == 0 {
		t.Errorf("implausible record counts: %+v", info)
	}
	if info.Calls != info.Returns {
		t.Errorf("calls %d != returns %d on a cleanly halted run", info.Calls, info.Returns)
	}
}

// TestStatTruncated: a trace cut past its header stats without error,
// reported damaged, never panics.
func TestStatTruncated(t *testing.T) {
	rec := record(t)
	for _, n := range []int{len(rec.data) / 2, len(rec.data) - 1} {
		info, err := etrace.Stat(bytes.NewReader(rec.data[:n]), int64(n))
		if err != nil {
			t.Errorf("trace truncated to %d bytes: %v", n, err)
			continue
		}
		if !info.Damaged() {
			t.Errorf("trace truncated to %d bytes reported intact", n)
		}
	}
}

// TestReplayerRejectsCorruptInput: garbage, truncation and header damage
// must all surface as errors, never panics or hangs.
func TestReplayerRejectsCorruptInput(t *testing.T) {
	rec := record(t)
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    []byte("NOPE\x01rest"),
		"bad version":  append([]byte("TQET\x7f"), rec.data[5:64]...),
		"header only":  rec.data[:16],
		"garbage":      []byte(strings.Repeat("\xff\x00\xa5", 300)),
		"mid truncate": rec.data[:len(rec.data)/3],
	}
	for name, data := range cases {
		rp, err := openSolo(data, false)
		if err != nil {
			continue // rejected at the header: good
		}
		core.Attach(rp, core.Options{SliceInterval: 1000, IncludeStack: true})
		if err := rp.Replay(); err == nil {
			t.Errorf("%s: corrupt trace replayed without error", name)
		}
	}
	// Flipping bytes inside the stream must never panic; errors are
	// expected, silent success is fine only if the flip hit dead bits.
	for _, off := range []int{80, 200, 1000, len(rec.data) / 2, len(rec.data) - 10} {
		if off >= len(rec.data) {
			continue
		}
		mut := append([]byte(nil), rec.data...)
		mut[off] ^= 0x55
		rp, err := openSolo(mut, false)
		if err != nil {
			continue
		}
		core.Attach(rp, core.Options{SliceInterval: 1000, IncludeStack: true})
		_ = rp.Replay()
	}
}

// TestReplayTwiceFails: a replayer is single-use.
func TestReplayTwiceFails(t *testing.T) {
	rec := record(t)
	rp := replayer(t, rec)
	if err := rp.Replay(); err != nil {
		t.Fatal(err)
	}
	if err := rp.Replay(); err == nil {
		t.Error("second Replay did not error")
	}
}

// FuzzReplay feeds arbitrary bytes to the full decode/replay path with a
// profiling tool attached: the contract is error-or-success, never a
// panic, a hang, or an unbounded allocation.  Seeds are prefixes of a
// real recording so mutations explore the record grammar, not just the
// header.
func FuzzReplay(f *testing.F) {
	data := bytes.Clone(record(f).data)
	for _, n := range []int{len(data), 64 << 10, 4096, 200, 64, 5} {
		if n <= len(data) {
			f.Add(data[:n])
		}
	}
	f.Add([]byte("TQET\x01"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		rp, err := openSolo(b, false)
		if err == nil {
			core.Attach(rp, core.Options{SliceInterval: 1000, IncludeStack: true})
			_ = rp.Replay()
		}
		_, _ = etrace.Stat(bytes.NewReader(b), int64(len(b)))
	})
}

// TestRecordByteIdentityAcrossEngines pins the block engine's trace
// contract: recording the same workload through the reference stepper
// must produce the bytes the block engine (record's default) wrote —
// same static records in the same compile order, same events with the
// same instruction counts.
func TestRecordByteIdentityAcrossEngines(t *testing.T) {
	got := record(t).data
	m, _ := workload(t).NewMachine()
	m.BlockEngine = false
	ref := capture(t, m, etrace.RecordOptions{Workload: "wfs/small"})
	if !bytes.Equal(ref, got) {
		n := min(len(ref), len(got))
		at := n
		for i := 0; i < n; i++ {
			if ref[i] != got[i] {
				at = i
				break
			}
		}
		t.Fatalf("trace bytes diverge: step=%d bytes, block=%d bytes, first difference at offset %d", len(ref), len(got), at)
	}
}
