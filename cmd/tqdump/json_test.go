package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// pinnedTraceJSON mirrors the documented -etrace -json schema exactly.
// Decoding with DisallowUnknownFields pins the schema: a field renamed
// or removed upstream fails here before it breaks a consumer's script.
type pinnedTraceJSON struct {
	Path     string `json:"path"`
	Status   string `json:"status"`
	ExitCode int    `json:"exit_code"`
	Error    string `json:"error"`

	Version     int  `json:"version"`
	Checksummed bool `json:"checksummed"`

	Workload  string `json:"workload"`
	StackBase uint64 `json:"stack_base"`
	Routines  int    `json:"routines"`
	Records   *struct {
		Statics uint64 `json:"statics"`
		Reads   uint64 `json:"reads"`
		Writes  uint64 `json:"writes"`
		Calls   uint64 `json:"calls"`
		Returns uint64 `json:"returns"`
		Skipped uint64 `json:"skipped"`
	} `json:"records"`

	Index *struct {
		Present bool   `json:"present"`
		Chunks  int    `json:"chunks"`
		Error   string `json:"error"`
	} `json:"index"`

	Chunks []struct {
		Offset  int64  `json:"offset"`
		Size    int64  `json:"size"`
		Records uint64 `json:"records"`
		StartIC uint64 `json:"start_ic"`
		EndIC   uint64 `json:"end_ic"`
		Error   string `json:"error"`
	} `json:"chunks"`
	BadChunks     int   `json:"bad_chunks"`
	LostTailBytes int64 `json:"lost_tail_bytes"`
	Complete      bool  `json:"complete"`

	Final *struct {
		ICount   uint64 `json:"icount"`
		PC       uint64 `json:"pc"`
		ExitCode int64  `json:"exit_code"`
		Halted   bool   `json:"halted"`
	} `json:"final"`
}

func decodePinned(t *testing.T, out []byte) pinnedTraceJSON {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(out))
	dec.DisallowUnknownFields()
	var doc pinnedTraceJSON
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("output does not match the pinned schema: %v\n%s", err, out)
	}
	return doc
}

func TestDumpTraceJSONIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "small.etrace")
	if err := os.WriteFile(path, recordTrace(t), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := dumpTraceJSON(&out, path)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitTraceOK {
		t.Fatalf("exit code %d, want %d", code, exitTraceOK)
	}
	doc := decodePinned(t, out.Bytes())
	if doc.Status != "ok" || doc.ExitCode != 0 {
		t.Fatalf("status %q exit %d, want ok/0", doc.Status, doc.ExitCode)
	}
	if doc.Version != 2 || !doc.Checksummed {
		t.Errorf("version/checksummed = %d/%v, want 2/true", doc.Version, doc.Checksummed)
	}
	if doc.Workload != "wfs/small" || doc.Routines == 0 {
		t.Errorf("workload %q routines %d", doc.Workload, doc.Routines)
	}
	if doc.Records == nil || doc.Records.Reads == 0 || doc.Records.Writes == 0 {
		t.Errorf("record counts missing or empty: %+v", doc.Records)
	}
	if doc.Index == nil || !doc.Index.Present || doc.Index.Chunks != len(doc.Chunks) {
		t.Errorf("index block inconsistent: %+v vs %d chunks", doc.Index, len(doc.Chunks))
	}
	if len(doc.Chunks) == 0 || doc.BadChunks != 0 || !doc.Complete {
		t.Errorf("chunk table: %d chunks, %d bad, complete=%v", len(doc.Chunks), doc.BadChunks, doc.Complete)
	}
	if doc.Final == nil || doc.Final.ICount == 0 || !doc.Final.Halted {
		t.Errorf("final state: %+v", doc.Final)
	}
}

func TestDumpTraceJSONDamaged(t *testing.T) {
	data := bytes.Clone(recordTrace(t))
	// Flip a byte deep inside the stream: a chunk CRC must catch it.
	data[len(data)/2] ^= 0xff
	path := filepath.Join(t.TempDir(), "bad.etrace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := dumpTraceJSON(&out, path)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitTraceSalvageable {
		t.Fatalf("exit code %d, want %d", code, exitTraceSalvageable)
	}
	doc := decodePinned(t, out.Bytes())
	if doc.Status != "damaged" || doc.ExitCode != exitTraceSalvageable {
		t.Fatalf("status %q exit %d, want damaged/%d", doc.Status, doc.ExitCode, exitTraceSalvageable)
	}
	if doc.BadChunks == 0 {
		t.Error("damaged trace reports zero bad chunks")
	}
	bad := 0
	for _, c := range doc.Chunks {
		if c.Error != "" {
			bad++
		}
	}
	if bad != doc.BadChunks {
		t.Errorf("bad_chunks %d but %d chunk entries carry errors", doc.BadChunks, bad)
	}
}

func TestDumpTraceJSONUnreadable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.etrace")
	if err := os.WriteFile(path, []byte("not a trace at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := dumpTraceJSON(&out, path)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitTraceUnreadable {
		t.Fatalf("exit code %d, want %d", code, exitTraceUnreadable)
	}
	doc := decodePinned(t, out.Bytes())
	if doc.Status != "unreadable" || doc.Error == "" {
		t.Fatalf("status %q error %q, want unreadable with an error", doc.Status, doc.Error)
	}
	if !strings.HasSuffix(doc.Path, "junk.etrace") {
		t.Errorf("path %q", doc.Path)
	}
}
