package study_test

import (
	"os"
	"path/filepath"
	"testing"

	"tquad/internal/study"
)

// TestCheckpointValidatesTraceOnce: a checkpoint decodes a trace it
// finds on disk the first time it is asked for, and rejects one that
// fails that decode; a trace it persisted itself, or has validated
// once, it serves without decoding again.  Damage made behind the
// checkpoint's back shows which: only a decode would notice it.
func TestCheckpointValidatesTraceOnce(t *testing.T) {
	dir := t.TempDir()
	open := func() *study.Checkpoint {
		ck, err := study.OpenCheckpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ck.Close() })
		return ck
	}
	path := filepath.Join(dir, "trace-guest.etrace")

	persisted := open()
	sch := study.NewScheduler(newStudy(t, nil), 2)
	sch.SetCheckpoint(persisted)
	if _, err := sch.Run(study.RunConfig{Kind: study.RunNative}); err != nil {
		t.Fatal(err)
	}
	sch.Close()
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damaged, err := os.ReadFile(damagedCopy(t, path))
	if err != nil {
		t.Fatal(err)
	}
	write := func(b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	write(damaged)
	if got, ok := persisted.PersistedTrace(); !ok || got != path {
		t.Errorf("persisting checkpoint: PersistedTrace = %q, %v; want %q, true without a decode", got, ok, path)
	}
	if _, ok := open().PersistedTrace(); ok {
		t.Error("fresh checkpoint accepted a damaged trace found on disk")
	}

	write(intact)
	validated := open()
	if _, ok := validated.PersistedTrace(); !ok {
		t.Fatal("fresh checkpoint rejected an intact trace")
	}
	write(damaged)
	if _, ok := validated.PersistedTrace(); !ok {
		t.Error("validating checkpoint decoded its trace a second time")
	}
}
