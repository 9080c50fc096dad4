package main

// Contract tests of -record and -replay at the process level: what a
// recording replays to, what strict and salvage replays make of a
// damaged recording, and that a failed recording leaves no file behind.
// `make corrupt` runs them (TestReplayContract*, TestRecordContract*).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tquad/internal/etrace"
)

// recordSmall records the -config small guest into dir with a single
// -slice 200000 run and returns the trace's path.
func recordSmall(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "small.etrace")
	runSelf(t, "-config", "small", "-slice", "200000", "-record", path)
	return path
}

// damageChunks flips one byte halfway into the payload of the trace's
// middle chunk, or of every chunk when every is set.  The chunks are
// located through the trace's index, not at fixed file offsets, so the
// damage lands in the same chunks whatever the length of the header in
// front of them.
func damageChunks(t *testing.T, path string, every bool) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := etrace.ReadIndex(bytes.NewReader(b), int64(len(b)))
	if err != nil || idx == nil || len(idx.Chunks) < 3 {
		t.Fatalf("index of %s: %v (%v)", path, idx, err)
	}
	chunks := idx.Chunks[len(idx.Chunks)/2:][:1]
	if every {
		chunks = idx.Chunks
	}
	for _, c := range chunks {
		b[c.Offset+int64(len(binary.AppendUvarint(nil, uint64(c.Size))))+c.Size/2] ^= 0xff
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// exitCode is a finished command's exit status.
func exitCode(err error) int {
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	if err != nil {
		return -1
	}
	return 0
}

// TestReplayContractSweepGolden: a recording replayed as a slice sweep
// prints the live sweep's golden.
func TestReplayContractSweepGolden(t *testing.T) {
	trace := recordSmall(t, t.TempDir())
	got := runSelf(t, "-replay", trace, "-slice", "200000,400000")
	if want := golden(t, "golden_small_sweep.txt"); got != want {
		t.Errorf("-replay sweep differs from the live sweep's golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestReplayContractDamagedTrace: a recording with one damaged chunk
// fails a strict replay, salvages to the golden with an explicit slice,
// cannot size -slice 0, and is never modified by any of them.  A copy
// with every chunk damaged salvages nothing, and that fails too.
func TestReplayContractDamagedTrace(t *testing.T) {
	dir := t.TempDir()
	trace := recordSmall(t, dir)
	wrecked := filepath.Join(dir, "wrecked.etrace")
	b, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wrecked, b, 0o644); err != nil {
		t.Fatal(err)
	}
	damageChunks(t, trace, false)
	damageChunks(t, wrecked, true)
	for _, c := range []struct {
		name   string
		trace  string
		args   []string
		code   int
		stderr string // a substring stderr must hold
		golden string // stdout's golden; empty: no stdout
	}{
		{"strict", trace, []string{"-slice", "200000"}, 1, "checksum mismatch", ""},
		{"salvage", trace, []string{"-salvage", "-slice", "200000"}, 0, "", "golden_small_salvage.txt"},
		{"salvage sizing", trace, []string{"-salvage"}, 1, "pass an explicit -slice", ""},
		{"salvage of nothing", wrecked, []string{"-salvage", "-slice", "200000"}, 1,
			"salvage replay applied no instruction: salvaged 0/", ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			before, err := os.ReadFile(c.trace)
			if err != nil {
				t.Fatal(err)
			}
			args := append([]string{"-replay", c.trace}, c.args...)
			stdout, stderr, err := tool(args...)
			if got := exitCode(err); got != c.code {
				t.Errorf("tquad %v: exit %d, want %d\nstderr:\n%s", args, got, c.code, stderr)
			}
			if !strings.Contains(string(stderr), c.stderr) || c.code == 0 && len(stderr) != 0 {
				t.Errorf("tquad %v: stderr does not hold %q:\n%s", args, c.stderr, stderr)
			}
			want := ""
			if c.golden != "" {
				want = golden(t, c.golden)
			}
			if string(stdout) != want {
				t.Errorf("tquad %v stdout:\n--- got ---\n%s--- want ---\n%s", args, stdout, want)
			}
			if after, err := os.ReadFile(c.trace); err != nil || !bytes.Equal(after, before) {
				t.Errorf("tquad %v changed the trace (%v)", args, err)
			}
		})
	}
}

// TestRecordContractFailureLeavesNoFile: a recording whose guest runs
// out of budget leaves no trace file, not even one that existed before.
func TestRecordContractFailureLeavesNoFile(t *testing.T) {
	for _, existed := range []bool{false, true} {
		f := filepath.Join(t.TempDir(), "f.etrace")
		if existed {
			if err := os.WriteFile(f, []byte("an older trace"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, stderr, err := tool("-config", "small", "-slice", "200000", "-max-icount", "100000", "-record", f)
		if got := exitCode(err); got != 1 {
			t.Errorf("existed=%v: exit %d, want 1\nstderr:\n%s", existed, got, stderr)
		}
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("existed=%v: the failed recording left %s behind (%v)", existed, f, err)
		}
	}
}
