// Sweep checkpoint/resume: a journal directory that persists each
// completed run's key (done.jsonl, one JSON object per line, appended
// and fsynced as runs finish) and the finished guest recording's event
// trace (trace-guest.etrace, moved into place atomically via a .part
// rename).  A sweep killed mid-flight and restarted with the same
// journal re-executes zero completed guest work: recordings are served
// from the persisted trace — after validating it decodes to a complete
// end record — and completed configurations replay from it cheaply.
//
// A trace is validated at most once per process.  One found on disk is
// fully decoded the first time it is asked for; one this process has
// validated, or persisted itself (the scheduler flushes, fsyncs and
// closes a recording before renaming it into place), is served without
// decoding again, until a rerecord or a failed recording removes it.
//
// Crash safety is append-only-with-rename: a torn final line in
// done.jsonl (the process died inside the write) fails to parse and is
// ignored, so the worst outcome of a kill is re-running one
// configuration; a trace is only visible under its final name once
// fully written, so a partial recording can never be mistaken for a
// checkpoint hit.
package study

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"tquad/internal/etrace"
)

// doneFile is the journal of completed run keys inside a checkpoint
// directory.
const doneFile = "done.jsonl"

// doneEntry is one line of done.jsonl.  Key alone decides resume
// behaviour; the result fields are carried for post-mortem inspection
// of interrupted sweeps.
type doneEntry struct {
	Key    string `json:"key"`
	Kind   string `json:"kind,omitempty"`
	ICount uint64 `json:"icount,omitempty"`
	Time   uint64 `json:"time,omitempty"`
}

// Checkpoint is an open sweep journal.  Safe for concurrent use by the
// scheduler's workers.
type Checkpoint struct {
	dir string

	mu   sync.Mutex
	done map[string]doneEntry
	f    *os.File // done.jsonl, append-only
	// valid: the trace file is known complete in this process, persisted
	// here by the scheduler or validated by a full decode.
	valid bool
}

// OpenCheckpoint opens (creating if needed) the journal directory and
// loads the set of already-completed run keys.  Unparseable lines —
// e.g. a line torn by a mid-write kill — are skipped, which simply
// re-runs the affected configuration.
func OpenCheckpoint(dir string) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("study: checkpoint: %w", err)
	}
	c := &Checkpoint{dir: dir, done: make(map[string]doneEntry)}
	path := filepath.Join(dir, doneFile)
	if b, err := os.ReadFile(path); err == nil {
		for _, line := range bytes.Split(b, []byte("\n")) {
			line = bytes.TrimSpace(line)
			if len(line) == 0 {
				continue
			}
			var e doneEntry
			if json.Unmarshal(line, &e) == nil && e.Key != "" {
				c.done[e.Key] = e
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("study: checkpoint: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("study: checkpoint: %w", err)
	}
	c.f = f
	return c, nil
}

// Close flushes and closes the journal file.  The directory and its
// contents stay on disk for a future resume; remove the directory once
// the sweep has fully succeeded.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}

// Done reports whether the run key completed in a previous (or the
// current) sweep.
func (c *Checkpoint) Done(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.done[key]
	return ok
}

// Completed returns the completed run keys in sorted order.
func (c *Checkpoint) Completed() []string {
	c.mu.Lock()
	keys := make([]string, 0, len(c.done))
	for k := range c.done {
		keys = append(keys, k)
	}
	c.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// markDone appends the entry to done.jsonl and syncs it, so a kill
// immediately after a run completes still resumes past that run.
// Already-journalled keys are not rewritten.
func (c *Checkpoint) markDone(e doneEntry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.done[e.Key]; ok {
		return nil
	}
	if c.f == nil {
		return fmt.Errorf("study: checkpoint: journal closed")
	}
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if _, err := c.f.Write(append(b, '\n')); err != nil {
		return err
	}
	if err := c.f.Sync(); err != nil {
		return err
	}
	c.done[e.Key] = e
	return nil
}

// PersistedTrace returns the path of the journalled, validated event
// trace, or ok=false when none has been persisted yet or etrace.Stat
// finds the file damaged (in which case the recording runs fresh and
// persists over it).  Only a trace this process has neither persisted
// nor validated yet is decoded.  The jobd daemon archives a finished
// job's recording from here into its artifact store.
func (c *Checkpoint) PersistedTrace() (string, bool) {
	path := c.tracePath()
	c.mu.Lock()
	valid := c.valid
	c.mu.Unlock()
	if valid {
		return path, true
	}
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return "", false
	}
	info, err := etrace.Stat(f, fi.Size())
	if err != nil || info.Damaged() {
		return "", false
	}
	c.setValid(true)
	return path, true
}

// setValid records whether the trace file is known complete.
func (c *Checkpoint) setValid(ok bool) {
	c.mu.Lock()
	c.valid = ok
	c.mu.Unlock()
}

// tracePath returns the persisted trace location.
func (c *Checkpoint) tracePath() string { return filepath.Join(c.dir, "trace-guest.etrace") }
