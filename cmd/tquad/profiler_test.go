package main

// Process-level tests of the profiler's flag rules: which combinations
// run, which are refused, and what -record, -replay and -resume print.

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestStrayArgumentsRejected: no command takes positional arguments, so
// a mistyped subcommand or a stray word is a usage error naming it.
func TestStrayArgumentsRejected(t *testing.T) {
	for _, c := range []struct {
		args   []string
		stderr []string
	}{
		{[]string{"stduy", "-config", "study"}, []string{`unexpected argument "stduy"`, "tquad study|quad|gprof|phases|run|daemon"}},
		{[]string{"quad", "extra"}, []string{`unexpected argument "extra"`, "Usage of tquad quad"}},
	} {
		stdout, stderr, err := tool(c.args...)
		if got := exitCode(err); got != 2 || len(stdout) != 0 {
			t.Errorf("tquad %v: exit %d with %d bytes of stdout, want exit 2 and none", c.args, got, len(stdout))
		}
		for _, want := range c.stderr {
			if !strings.Contains(string(stderr), want) {
				t.Errorf("tquad %v: stderr lacks %q:\n%s", c.args, want, stderr)
			}
		}
	}
}

// TestReplayCacheSweepMatchesLive: a cache sweep replayed off a
// recording prints what the live sweep prints, comparison table
// included.
func TestReplayCacheSweepMatchesLive(t *testing.T) {
	const caches = "l1=1k/2/64;l1=4k/4/64,l2=32k/8/64"
	trace := recordSmall(t, t.TempDir())
	want := runSelf(t, "-config", "small", "-slice", "200000", "-cache", caches)
	if got := runSelf(t, "-replay", trace, "-slice", "200000", "-cache", caches); got != want {
		t.Errorf("-replay cache sweep differs from the live sweep:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestProfilerFlagRules: -serve with -replay, -record on a sweep and
// -retries/-resume on a single run all run; -resume refuses -record and
// -replay, whose traces would compete with the journal's own recording;
// a -metric, -kernels or -width the daemon would refuse is refused.
func TestProfilerFlagRules(t *testing.T) {
	dir := t.TempDir()
	trace := recordSmall(t, dir)
	sweep := golden(t, "golden_small_sweep.txt")
	rec := filepath.Join(dir, "sweep.etrace")
	resume := filepath.Join(dir, "journal")
	for _, c := range []struct {
		args   []string
		code   int
		stdout string // the whole stdout; empty: not checked
		stderr string // a substring of stderr
	}{
		{[]string{"-serve", "127.0.0.1:0", "-replay", trace, "-slice", "200000"}, 0, "", ""},
		{[]string{"-config", "small", "-slice", "200000,400000", "-record", rec}, 0, "event trace written to " + rec + "\n" + sweep, ""},
		{[]string{"-replay", rec, "-slice", "200000,400000"}, 0, sweep, ""},
		{[]string{"-resume", resume, "-record", filepath.Join(dir, "x.etrace")}, 1, "", "-resume excludes -record and -replay"},
		{[]string{"-resume", resume, "-replay", trace}, 1, "", "-resume excludes -record and -replay"},
		{[]string{"-config", "small", "-metric", "foo"}, 1, "", `bad -metric "foo" (want reads, writes or both)`},
		{[]string{"-config", "small", "-kernels", "bogus"}, 1, "", `bad -kernels "bogus" (want top, last or all)`},
		{[]string{"-config", "small", "-width", "-3"}, 1, "", "bad -width -3"},
	} {
		stdout, stderr, err := tool(c.args...)
		if got := exitCode(err); got != c.code {
			t.Errorf("tquad %v: exit %d, want %d\nstderr:\n%s", c.args, got, c.code, stderr)
		}
		if c.stdout != "" && string(stdout) != c.stdout {
			t.Errorf("tquad %v stdout:\n--- got ---\n%s--- want ---\n%s", c.args, stdout, c.stdout)
		}
		if !strings.Contains(string(stderr), c.stderr) {
			t.Errorf("tquad %v: stderr lacks %q:\n%s", c.args, c.stderr, stderr)
		}
	}

	// A single run under -retries and -resume, twice: the second resumes
	// from the journal and prints what the first printed.
	single := []string{"-config", "small", "-slice", "200000", "-retries", "1", "-resume", resume}
	first := runSelf(t, single...)
	stdout, stderr, err := tool(single...)
	if exitCode(err) != 0 || string(stdout) != first || !strings.Contains(string(stderr), "resuming: 1 run(s) already completed") {
		t.Errorf("resumed single run: %v, stdout equal %v, stderr:\n%s", err, string(stdout) == first, stderr)
	}
}
