// Job model of the analysis daemon: what a submitted sweep looks like
// (JobSpec), what the daemon tracks about it (Job), and the
// queued → running → succeeded | failed | canceled state machine both
// move through.  Specs are normalised at submission — defaults filled,
// slice lists deduplicated, cache geometries canonicalised — so the
// journalled spec is exactly the spec that executes, on this boot or
// any later one.
package jobd

import (
	"fmt"
	"time"

	"tquad/internal/memsim"
	"tquad/internal/study"
	"tquad/internal/wfs"
)

// Job states.  Terminal states are succeeded, failed and canceled;
// queued and running jobs found in the journal at boot are re-queued.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateSucceeded = "succeeded"
	StateFailed    = "failed"
	StateCanceled  = "canceled"
)

// terminal reports whether a state ends the job's lifecycle.
func terminal(state string) bool {
	return state == StateSucceeded || state == StateFailed || state == StateCanceled
}

// JobSpec is one submitted sweep: the guest workload plus the
// -slice/-cache/engine configuration grid cmd/tquad would run.  The
// zero value of every optional field selects the cmd/tquad default.
type JobSpec struct {
	// Workload names the guest application ("wfs"; the only one built in).
	Workload string `json:"workload,omitempty"`
	// Config selects the workload configuration: small or study.
	Config string `json:"config,omitempty"`
	// Slices are the tQUAD slice intervals to sweep (0 = ~64 slices).
	Slices []uint64 `json:"slices,omitempty"`
	// Caches optionally sweeps memory-hierarchy geometries
	// (memsim.ParseConfig syntax), crossed with every slice interval.
	Caches []string `json:"caches,omitempty"`
	// Stack is "include" (default) or "exclude".
	Stack string `json:"stack,omitempty"`
	// IgnoreLibs excludes OS/library routine bandwidth.
	IgnoreLibs bool `json:"ignore_libs,omitempty"`
	// Engine is "block" (default) or "step".
	Engine string `json:"engine,omitempty"`
	// Metric ("reads"/"writes"/"both"), Kernels ("top"/"last"/"all") and
	// Width shape the rendered report artifact.
	Metric  string `json:"metric,omitempty"`
	Kernels string `json:"kernels,omitempty"`
	Width   int    `json:"width,omitempty"`
	// MaxICount overrides the per-run guest instruction budget.
	MaxICount uint64 `json:"max_icount,omitempty"`
	// Retries re-runs transiently failed runs (the PR 4 policy).
	Retries int `json:"retries,omitempty"`
	// SkipTables drops the Table I–IV artifact (rendered by default off
	// the same recorded execution).
	SkipTables bool `json:"skip_tables,omitempty"`
}

// normalize fills defaults, validates every field and canonicalises the
// slice and cache lists.  It mutates the spec so the journalled form is
// the canonical one.
func (s *JobSpec) normalize() error {
	if s.Workload == "" {
		s.Workload = "wfs"
	}
	if s.Workload != "wfs" {
		return fmt.Errorf("jobd: unknown workload %q (want wfs)", s.Workload)
	}
	if s.Config == "" {
		s.Config = "small"
	}
	if _, err := wfs.ConfigByName(s.Config); err != nil {
		return fmt.Errorf("jobd: %w", err)
	}
	if len(s.Slices) == 0 {
		s.Slices = []uint64{0}
	}
	// Deduplicate like -slice does: first occurrence wins.
	seen := make(map[uint64]bool, len(s.Slices))
	dedup := s.Slices[:0]
	for _, iv := range s.Slices {
		if !seen[iv] {
			seen[iv] = true
			dedup = append(dedup, iv)
		}
	}
	s.Slices = dedup
	if len(s.Caches) > 0 {
		keys := make([]string, 0, len(s.Caches))
		kseen := make(map[string]bool, len(s.Caches))
		for _, c := range s.Caches {
			mc, err := memsim.ParseConfig(c)
			if err != nil {
				return fmt.Errorf("jobd: cache %q: %w", c, err)
			}
			if key := mc.Key(); !kseen[key] {
				kseen[key] = true
				keys = append(keys, key)
			}
		}
		s.Caches = keys
	}
	switch s.Stack {
	case "":
		s.Stack = "include"
	case "include", "exclude":
	default:
		return fmt.Errorf("jobd: bad stack %q (want include or exclude)", s.Stack)
	}
	switch s.Engine {
	case "":
		s.Engine = "block"
	case "block", "step":
	default:
		return fmt.Errorf("jobd: bad engine %q (want block or step)", s.Engine)
	}
	if s.Metric == "" {
		s.Metric = "reads"
	}
	if s.Kernels == "" {
		s.Kernels = "top"
	}
	if s.Width == 0 {
		s.Width = 64
	}
	if err := s.renderOptions().Check(""); err != nil {
		return fmt.Errorf("jobd: %w", err)
	}
	if s.Retries < 0 {
		return fmt.Errorf("jobd: bad retries %d", s.Retries)
	}
	return nil
}

// includeStack is the Stack word as the bool the run configs take.
func (s *JobSpec) includeStack() bool { return s.Stack != "exclude" }

// renderOptions is what the job's report and heatmaps show.
func (s *JobSpec) renderOptions() study.RenderOptions {
	return study.RenderOptions{
		Metric: s.Metric, Kernels: s.Kernels,
		Width: s.Width, IncludeStack: s.includeStack(),
	}
}

// Summary is the one-line human description shown on the dashboard.
func (s *JobSpec) Summary() string {
	out := fmt.Sprintf("%s/%s slices=%v", s.Workload, s.Config, s.Slices)
	if len(s.Caches) > 0 {
		out += fmt.Sprintf(" caches=%d", len(s.Caches))
	}
	if s.Engine != "block" {
		out += " engine=" + s.Engine
	}
	if s.Stack != "include" {
		out += " stack=" + s.Stack
	}
	return out
}

// Artifact identifies one stored result file by name within its job and
// by content digest within the artifact store.
type Artifact struct {
	Name   string `json:"name"`
	Digest string `json:"digest"` // "sha256:<hex>"
	Size   int64  `json:"size"`
}

// Job is one submitted sweep's full state.  The store owns the
// authoritative copy; accessors hand out value copies.
type Job struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`

	State    string    `json:"state"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`

	// Attempt counts start records: 1 for a clean run, more when the job
	// was resumed after a daemon crash/shutdown or retried.
	Attempt int `json:"attempt,omitempty"`
	// Resumed marks a job that was found running in the journal at boot
	// and re-queued (it resumes through its checkpoint directory).
	Resumed bool `json:"resumed,omitempty"`

	Error     string     `json:"error,omitempty"`
	Artifacts []Artifact `json:"artifacts,omitempty"`
	// GuestExecutions is how many guest executions the job's final
	// (successful) run performed — 0 when it resumed entirely from its
	// checkpointed recording.
	GuestExecutions uint64 `json:"guest_executions"`
}

// clone returns a deep value copy safe to hand outside the store's lock.
func (j *Job) clone() Job {
	c := *j
	c.Spec.Slices = append([]uint64(nil), j.Spec.Slices...)
	c.Spec.Caches = append([]string(nil), j.Spec.Caches...)
	c.Artifacts = append([]Artifact(nil), j.Artifacts...)
	return c
}

// Artifact returns the named artifact, if the job produced one.
func (j *Job) Artifact(name string) (Artifact, bool) {
	for _, a := range j.Artifacts {
		if a.Name == name {
			return a, true
		}
	}
	return Artifact{}, false
}

// safeName maps a run key onto a safe artifact-name fragment (same
// alphabet as the checkpoint journal's trace file names).
func safeName(key string) string {
	b := []byte(key)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}
