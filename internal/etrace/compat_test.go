package etrace_test

import (
	"bytes"
	"testing"

	"tquad/internal/core"
	"tquad/internal/etrace"
	"tquad/internal/pin"
	"tquad/internal/trace"
	"tquad/internal/wfs"
)

// The trace format has shipped in three on-disk generations:
//
//	gen1 — version byte 1, no index footer (pre-indexing recordings);
//	gen2 — version byte 1 with the index footer;
//	gen3 — version byte 2: header/chunk/footer CRC32C checksums.
//
// This suite pins the compatibility promise: all three generations
// replay to byte-identical tQUAD profiles in every replay mode — inline
// decode (Jobs 1), a decode worker pool (Jobs 2), and salvage — and Stat
// reports each stream's generation honestly.

// recordAtVersion records the shared small workload at a forced format
// revision and returns the raw stream.
func recordAtVersion(t *testing.T, ver byte) []byte {
	t.Helper()
	w := workload(t)
	m, _ := w.NewMachine()
	e := pin.NewEngine(m)
	var buf bytes.Buffer
	opts := etrace.RecordOptions{Workload: "wfs/small", Blocks: true}
	etrace.SetFormatVersion(&opts, ver)
	rec, err := etrace.Record(e, &buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(wfs.MaxInstr); err != nil {
		t.Fatal(err)
	}
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// generations returns the three on-disk generations of one recording of
// the small workload: gen1 is gen2 with the footer stripped, which is
// exactly what a pre-footer recorder produced.
func generations(t *testing.T) map[string][]byte {
	t.Helper()
	gen2 := recordAtVersion(t, 1)
	gen3 := recordAtVersion(t, 2)
	idx, err := etrace.ReadIndex(bytes.NewReader(gen2), int64(len(gen2)))
	if err != nil || idx == nil || !idx.FromFooter {
		t.Fatalf("v1 recording lacks a footer to strip: %v", err)
	}
	gen1 := gen2[:idx.DataEnd]
	return map[string][]byte{"gen1": gen1, "gen2": gen2, "gen3": gen3}
}

// profileVia replays one stream in one mode with the core tool attached
// and returns the serialised temporal profile.
func profileVia(t *testing.T, data []byte, mode string, interval uint64) []byte {
	t.Helper()
	opts := etrace.ParallelOptions{Jobs: 1}
	switch mode {
	case "jobs1":
	case "jobs2":
		opts.Jobs = 2
	case "salvage":
		opts.Salvage = true
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	pr, err := etrace.NewParallelReplayer(bytes.NewReader(data), int64(len(data)), opts)
	if err != nil {
		t.Fatal(err)
	}
	host := pr.NewConsumer()
	tool := core.Attach(host, core.Options{SliceInterval: interval, IncludeStack: true})
	if err := pr.Replay(); err != nil {
		t.Fatal(err)
	}
	if rep := host.SalvageReport(); rep != nil && rep.Damaged() {
		t.Fatalf("undamaged stream reported damage: %s", rep)
	}
	var out bytes.Buffer
	if err := trace.SaveTemporal(&out, tool.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestFormatGenerationsReplayIdentically: one workload, three stream
// generations, three drivers — nine byte-identical profiles.
func TestFormatGenerationsReplayIdentically(t *testing.T) {
	gens := generations(t)
	rec := record(t)
	interval := rec.icount / 16
	var want []byte
	for _, gen := range []string{"gen1", "gen2", "gen3"} {
		for _, mode := range []string{"jobs1", "jobs2", "salvage"} {
			got := profileVia(t, gens[gen], mode, interval)
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: profile diverges from gen1/jobs1", gen, mode)
			}
		}
	}
}

// TestStatReportsGenerations: Stat tells the three generations apart and
// decodes all of them to the same complete final state.
func TestStatReportsGenerations(t *testing.T) {
	gens := generations(t)
	rec := record(t)
	cases := []struct {
		gen         string
		version     int
		checksummed bool
		indexed     bool
	}{
		{"gen1", 1, false, false},
		{"gen2", 1, false, true},
		{"gen3", 2, true, true},
	}
	for _, tc := range cases {
		info, err := etrace.Stat(bytes.NewReader(gens[tc.gen]))
		if err != nil {
			t.Fatalf("%s: Stat: %v", tc.gen, err)
		}
		if info.Version != tc.version || info.Checksummed != tc.checksummed {
			t.Errorf("%s: Version/Checksummed = %d/%v, want %d/%v",
				tc.gen, info.Version, info.Checksummed, tc.version, tc.checksummed)
		}
		if info.Indexed != tc.indexed {
			t.Errorf("%s: Indexed = %v, want %v", tc.gen, info.Indexed, tc.indexed)
		}
		if !info.Complete || info.FinalICount != rec.icount || info.Halted != rec.halted {
			t.Errorf("%s: final state ic=%d halted=%v complete=%v, want %d/%v/true",
				tc.gen, info.FinalICount, info.Halted, info.Complete, rec.icount, rec.halted)
		}
	}
}
