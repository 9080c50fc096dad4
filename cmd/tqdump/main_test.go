package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tquad/internal/etrace"
	"tquad/internal/pin"
	"tquad/internal/wfs"
)

// boundedReaderAt serves a trace and fails the test if the dumper ever
// asks for a big contiguous read — the signature of whole-file buffering
// (io.ReadAll / os.ReadFile style) that -etrace must never do: recorded
// traces can be orders of magnitude larger than memory.
type boundedReaderAt struct {
	t *testing.T
	r *bytes.Reader
}

func (r boundedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if len(p) > 256<<10 {
		r.t.Errorf("dump requested a %d-byte read: trace is being buffered, not streamed", len(p))
		return 0, errors.New("read too large")
	}
	return r.r.ReadAt(p, off)
}

var smallTrace []byte

// recordTrace captures the small WFS workload's event trace, once per
// test binary.  Callers that damage it work on a copy.
func recordTrace(t *testing.T) []byte {
	t.Helper()
	if smallTrace != nil {
		return smallTrace
	}
	w, err := wfs.NewWorkload(wfs.Small())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := w.NewMachine()
	e := pin.NewEngine(m)
	var buf bytes.Buffer
	rec, err := etrace.Record(e, &buf, etrace.RecordOptions{Workload: "wfs/small"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(wfs.MaxInstr); err != nil {
		t.Fatal(err)
	}
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	smallTrace = buf.Bytes()
	return smallTrace
}

// traceIndex returns the footer index of the recorded trace.
func traceIndex(t *testing.T, data []byte) *etrace.Index {
	t.Helper()
	idx, err := etrace.ReadIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil || idx == nil || len(idx.Chunks) < 3 {
		t.Fatalf("trace index unavailable: %v (%+v)", err, idx)
	}
	return idx
}

// withFooter returns the chunks of the indexed trace data followed by a
// checksummed index footer listing refs — the footer layout a recorder
// writes, so only the entries can be wrong.
func withFooter(t *testing.T, data []byte, refs []etrace.ChunkRef) []byte {
	t.Helper()
	out := bytes.Clone(data[:traceIndex(t, data).DataEnd])
	start := len(out)
	out = append(out, "TQIX\x02"...)
	out = binary.AppendUvarint(out, uint64(len(refs)))
	for _, c := range refs {
		for _, v := range []uint64{uint64(c.Offset), uint64(c.Size), c.Records, c.Events, c.StartIC, c.EndIC} {
			out = binary.AppendUvarint(out, v)
		}
	}
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out[start:], crc32.MakeTable(crc32.Castagnoli)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(out)-start))
	return append(out, "TQIX"...)
}

func TestDumpTraceStreams(t *testing.T) {
	data := recordTrace(t)
	if len(data) < 1<<20 {
		t.Fatalf("recorded trace is only %d bytes; too small to prove streaming", len(data))
	}
	var out strings.Builder
	ra := boundedReaderAt{t: t, r: bytes.NewReader(data)}
	if code := dumpTraceReader(&out, "stream.etrace", ra, int64(len(data)), false); code != exitTraceOK {
		t.Fatalf("exit code %d, want %d:\n%s", code, exitTraceOK, out.String())
	}
	dump := out.String()
	for _, want := range []string{
		"event trace stream.etrace: format v2",
		"routines (",
		"index: footer with",
		"final state:",
		"integrity: ok",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestDumpTraceTruncated(t *testing.T) {
	data := recordTrace(t)
	// Cut at a chunk boundary: mid-chunk cuts are decode errors, but a
	// recording that died between flushes is still inspectable.
	idx := traceIndex(t, data)
	cut := idx.Chunks[len(idx.Chunks)/2].Offset
	var out strings.Builder
	if code := dumpTraceReader(&out, "cut.etrace", bytes.NewReader(data[:cut]), cut, false); code != exitTraceSalvageable {
		t.Errorf("exit code %d, want %d", code, exitTraceSalvageable)
	}
	if !strings.Contains(out.String(), "final state: MISSING") {
		t.Errorf("truncated dump should report a missing final state:\n%s", out.String())
	}
	if strings.Contains(out.String(), "index: footer") {
		t.Errorf("truncated dump should not claim an index footer:\n%s", out.String())
	}
}

// TestDumpTraceFooterStripped: a checksummed trace whose footer was cut
// off dumps clean, and its integrity line names only what was verified.
func TestDumpTraceFooterStripped(t *testing.T) {
	data := recordTrace(t)
	idx := traceIndex(t, data)
	stripped := data[:idx.DataEnd]
	var out strings.Builder
	if code := dumpTraceReader(&out, "stripped.etrace", bytes.NewReader(stripped), idx.DataEnd, false); code != exitTraceOK {
		t.Fatalf("exit code %d, want %d:\n%s", code, exitTraceOK, out.String())
	}
	dump := out.String()
	for _, want := range []string{
		"index: none (footer absent",
		fmt.Sprintf("integrity: ok, header and %d chunks verified (CRC32C)\n", len(idx.Chunks)),
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
	if strings.Contains(dump, "index footer verified") {
		t.Errorf("dump of a footer-stripped trace claims a verified footer:\n%s", dump)
	}
}

// TestDumpTraceModesAgree: the text and -json modes reach one verdict —
// the same exit code — on an intact trace, on one damaged mid-chunk, on
// one whose checksummed footer leaves out chunk 0 and on a file that is
// no trace at all.
func TestDumpTraceModesAgree(t *testing.T) {
	data := recordTrace(t)
	idx := traceIndex(t, data)
	damaged := bytes.Clone(data)
	damaged[len(damaged)/2] ^= 0xff
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		data []byte
		code int
	}{
		{"intact", data, exitTraceOK},
		{"damaged mid-chunk", damaged, exitTraceSalvageable},
		{"footer without chunk 0", withFooter(t, data, idx.Chunks[1:]), exitTraceSalvageable},
		{"not a trace", []byte("not a trace at all"), exitTraceUnreadable},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "-")+".etrace")
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		text, err := dumpTrace(io.Discard, path, false)
		if err != nil {
			t.Fatalf("%s: text mode: %v", c.name, err)
		}
		js, err := dumpTraceJSON(io.Discard, path)
		if err != nil {
			t.Fatalf("%s: -json mode: %v", c.name, err)
		}
		if text != c.code || js != c.code {
			t.Errorf("%s: text mode exits %d, -json mode %d; want %d from both", c.name, text, js, c.code)
		}
	}
}
