package etrace_test

import (
	"bytes"
	"fmt"
	"testing"

	"tquad/internal/etrace"
	"tquad/internal/pin"
	"tquad/internal/wfs"
)

// The corruption matrix: every class of disk fault a stored trace can
// suffer — bit flips in the header, a chunk payload, a length prefix or
// the index footer; truncation mid-chunk, at a chunk boundary, or a few
// torn tail bytes; a whole chunk zeroed — crossed with every replay mode
// (inline decode and a decode worker pool, strict and salvage).  The invariant is
// fail-closed-or-accounted: each injected fault is either DETECTED (a
// strict replay stops with a CorruptError; a salvage replay counts the
// loss in its report) or the output is byte-identical to the pristine
// replay.  Silent divergence — a clean success with different numbers —
// is the one forbidden outcome.

// traceDigest summarises everything a tool could observe from a replay:
// the final machine state plus the full memory statistics.
func traceDigest(c *etrace.Consumer) string {
	rb, wb := c.Traffic()
	return fmt.Sprintf("ic=%d time=%d pc=%#x exit=%d halted=%v traffic=%d/%d mem=%+v",
		c.ICount(), c.Time(), c.CurrentPC(), c.ExitCode(), c.Halted(), rb, wb, c.MemStats())
}

// replayMode is one way of consuming a trace in the matrix.
type replayMode struct {
	name    string
	salvage bool
	run     func(data []byte) (string, *etrace.SalvageReport, error)
}

func replayModes() []replayMode {
	mode := func(jobs int, salvage bool) func([]byte) (string, *etrace.SalvageReport, error) {
		return func(data []byte) (string, *etrace.SalvageReport, error) {
			pr, err := etrace.NewParallelReplayer(bytes.NewReader(data), int64(len(data)),
				etrace.ParallelOptions{Jobs: jobs, Salvage: salvage})
			if err != nil {
				return "", nil, err
			}
			c := pr.NewConsumer()
			err = pr.Replay()
			return traceDigest(c), c.SalvageReport(), err
		}
	}
	return []replayMode{
		{name: "jobs1", salvage: false, run: mode(1, false)},
		{name: "jobs3", salvage: false, run: mode(3, false)},
		{name: "jobs1-salvage", salvage: true, run: mode(1, true)},
		{name: "jobs3-salvage", salvage: true, run: mode(3, true)},
	}
}

// payloadSpan returns chunk i's payload region [start, start+size): the
// frame minus its length prefix (computed from the next frame's offset,
// since the prefix is a varint).
func payloadSpan(idx *etrace.Index, i int) (start, size int64) {
	ref := idx.Chunks[i]
	end := idx.DataEnd
	if i+1 < len(idx.Chunks) {
		end = idx.Chunks[i+1].Offset
	}
	return end - ref.Size, ref.Size
}

func TestCorruptionMatrix(t *testing.T) {
	rec := record(t)
	idx, err := etrace.ReadIndex(bytes.NewReader(rec.data), int64(len(rec.data)))
	if err != nil || idx == nil || !idx.FromFooter || len(idx.Chunks) < 3 {
		t.Fatalf("recording has no usable footer index: %v (%+v)", err, idx)
	}
	modes := replayModes()

	// Pristine baseline: all four modes agree, and the salvage modes see
	// zero damage — salvage of an undamaged trace IS the strict replay.
	want, _, err := modes[0].run(rec.data)
	if err != nil {
		t.Fatalf("pristine %s replay: %v", modes[0].name, err)
	}
	for _, m := range modes[1:] {
		d, rep, err := m.run(rec.data)
		if err != nil {
			t.Fatalf("pristine %s replay: %v", m.name, err)
		}
		if d != want {
			t.Fatalf("pristine %s digest diverges:\n got %s\nwant %s", m.name, d, want)
		}
		if m.salvage && rep.Damaged() {
			t.Fatalf("pristine %s reported damage: %s", m.name, rep)
		}
	}

	mid := len(idx.Chunks) / 2
	firstStart, firstSize := payloadSpan(idx, 0)
	midStart, midSize := payloadSpan(idx, mid)
	lastStart, lastSize := payloadSpan(idx, len(idx.Chunks)-1)
	flip := func(off int64) func([]byte) []byte {
		return func(b []byte) []byte { b[off] ^= 0x40; return b }
	}
	cut := func(at int64) func([]byte) []byte {
		return func(b []byte) []byte { return b[:at] }
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		// salvageRuns: the salvage modes must complete without error AND
		// count the damage.  False only for header damage, where nothing
		// downstream can be trusted and even salvage fails closed.
		salvageRuns bool
	}{
		{"header bit flip", flip(6), false},
		{"first chunk bit flip", flip(firstStart + firstSize/2), true},
		{"mid chunk bit flip", flip(midStart + midSize/2), true},
		{"last chunk bit flip", flip(lastStart + lastSize/2), true},
		{"footer bit flip", flip(idx.DataEnd + 5), true},
		{"length prefix bit flip", flip(idx.Chunks[mid].Offset), true},
		{"zeroed chunk", func(b []byte) []byte {
			for i := midStart; i < midStart+midSize; i++ {
				b[i] = 0
			}
			return b
		}, true},
		{"truncated mid chunk", cut(midStart + midSize/2), true},
		{"truncated at chunk boundary", cut(idx.Chunks[mid].Offset), true},
		{"torn tail bytes", cut(int64(len(rec.data)) - 3), true},
	}
	for _, tc := range cases {
		data := tc.mutate(append([]byte(nil), rec.data...))
		for _, m := range modes {
			d, rep, err := m.run(data)
			switch {
			case err != nil:
				if !etrace.IsCorrupt(err) {
					t.Errorf("%s/%s: error not classified corrupt: %v", tc.name, m.name, err)
				}
				if m.salvage && tc.salvageRuns {
					t.Errorf("%s/%s: salvage replay failed: %v", tc.name, m.name, err)
				}
			case m.salvage && rep.Damaged():
				// Detected: the loss is accounted.  The digest may legally
				// differ — that is what the report is for.
			case d != want:
				t.Errorf("%s/%s: SILENT DIVERGENCE — clean replay, different output:\n got %s\nwant %s",
					tc.name, m.name, d, want)
			default:
				// Clean success with identical output: the fault hit bytes
				// nothing depends on.  Strict mode is allowed to miss those;
				// anything it cannot prove harmless must have errored.
				if !m.salvage {
					t.Errorf("%s/%s: strict replay accepted a damaged trace (digest happens to match — checksum must still catch it)",
						tc.name, m.name)
				}
			}
			if m.salvage && tc.salvageRuns && err == nil && !rep.Damaged() {
				t.Errorf("%s/%s: salvage replay saw no damage in a damaged trace", tc.name, m.name)
			}
		}
	}
}

// TestSalvageAccounting pins the loss numbers for one precise fault: a
// single flipped bit in one mid-trace chunk must cost exactly that chunk
// — one CRC error, its footer-hinted record count — and nothing else.
func TestSalvageAccounting(t *testing.T) {
	rec := record(t)
	idx, err := etrace.ReadIndex(bytes.NewReader(rec.data), int64(len(rec.data)))
	if err != nil || idx == nil || len(idx.Chunks) < 3 {
		t.Fatalf("index: %v", err)
	}
	mid := len(idx.Chunks) / 2
	start, size := payloadSpan(idx, mid)
	data := append([]byte(nil), rec.data...)
	data[start+size/2] ^= 0x01

	pr, err := etrace.NewParallelReplayer(bytes.NewReader(data), int64(len(data)),
		etrace.ParallelOptions{Jobs: 2, Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	c := pr.NewConsumer()
	if err := pr.Replay(); err != nil {
		t.Fatal(err)
	}
	rep := c.SalvageReport()
	if rep.ChunksTotal != len(idx.Chunks) {
		t.Errorf("ChunksTotal = %d, want %d", rep.ChunksTotal, len(idx.Chunks))
	}
	if rep.ChunksBad != 1 || rep.CRCErrors != 1 {
		t.Errorf("ChunksBad/CRCErrors = %d/%d, want 1/1", rep.ChunksBad, rep.CRCErrors)
	}
	if rep.RecordsLost != idx.Chunks[mid].Records {
		t.Errorf("RecordsLost = %d, want the damaged chunk's %d", rep.RecordsLost, idx.Chunks[mid].Records)
	}
	wantIC := idx.Chunks[mid].EndIC - idx.Chunks[mid].StartIC
	if rep.ICountLost != wantIC {
		t.Errorf("ICountLost = %d, want %d", rep.ICountLost, wantIC)
	}
	if !rep.Complete {
		t.Error("end record survived but Complete is false")
	}
	if rep.TornTail || rep.FooterDamaged {
		t.Errorf("spurious TornTail/FooterDamaged: %s", rep)
	}
	// The final state rides the last chunk, which is intact.
	if c.ICount() != rec.icount || c.ExitCode() != rec.exit || c.Halted() != rec.halted {
		t.Errorf("final state diverged: ic=%d exit=%d halted=%v, want %d/%d/%v",
			c.ICount(), c.ExitCode(), c.Halted(), rec.icount, rec.exit, rec.halted)
	}
}

// FuzzSalvage feeds arbitrary bytes to the salvage replay paths: the
// contract is that salvage NEVER panics or hangs — it errors only when
// the header is unusable, and otherwise completes with a loss report.
// On an undamaged trace, salvage must reproduce the strict replay exactly
// (checked against a strict run inside the fuzz body).
func FuzzSalvage(f *testing.F) {
	w, err := wfs.NewWorkload(wfs.Small())
	if err != nil {
		f.Fatal(err)
	}
	m, _ := w.NewMachine()
	e := pin.NewEngine(m)
	var buf bytes.Buffer
	rec, err := etrace.Record(e, &buf, etrace.RecordOptions{Workload: "seed", Blocks: true})
	if err != nil {
		f.Fatal(err)
	}
	if err := m.Run(wfs.MaxInstr); err != nil {
		f.Fatal(err)
	}
	if err := rec.Finish(); err != nil {
		f.Fatal(err)
	}
	data := buf.Bytes()
	for _, n := range []int{len(data), 64 << 10, 4096, 200, 64, 5} {
		if n <= len(data) {
			f.Add(data[:n])
		}
	}
	f.Add([]byte("TQET\x02"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		if rp, err := openSolo(b, true); err == nil {
			if err := rp.Replay(); err == nil && !rp.SalvageReport().Damaged() {
				// Salvage saw a pristine trace: a strict replay must agree
				// byte for byte, and must not error where salvage succeeded.
				strict, err := openSolo(b, false)
				if err != nil {
					t.Fatalf("salvage passed undamaged but strict open failed: %v", err)
				}
				if err := strict.Replay(); err != nil {
					t.Fatalf("salvage passed undamaged but strict replay failed: %v", err)
				}
				if got, want := traceDigest(rp.Consumer), traceDigest(strict.Consumer); got != want {
					t.Fatalf("undamaged salvage diverges from strict replay:\n got %s\nwant %s", got, want)
				}
			}
		}
		if pr, err := etrace.NewParallelReplayer(bytes.NewReader(b), int64(len(b)),
			etrace.ParallelOptions{Jobs: 2, Salvage: true}); err == nil {
			pr.NewConsumer()
			_ = pr.Replay()
		}
		_, _ = etrace.Verify(bytes.NewReader(b), int64(len(b)))
	})
}
