package main

// Golden tests for the command itself: with memsim disabled the output
// must stay byte-identical to the pre-memsim baseline captured in
// testdata/, and a cache sweep must render identically at any -jobs.
// The tests re-exec the test binary with TQUAD_BE_TOOL set, which makes
// TestMain dispatch straight into main() — a real process-level run,
// flag parsing, subcommand dispatch and exit codes included.

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("TQUAD_BE_TOOL") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// selfCommand re-executes this test binary as the tquad command with
// args — a subcommand's name first, for a subcommand.
func selfCommand(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TQUAD_BE_TOOL=1")
	return cmd
}

// tool runs the tquad command with args and returns its stdout, its
// stderr and the error from the wait.
func tool(args ...string) (stdout, stderr []byte, err error) {
	cmd := selfCommand(args...)
	var errb bytes.Buffer
	cmd.Stderr = &errb
	stdout, err = cmd.Output()
	return stdout, errb.Bytes(), err
}

// runSelf runs the tquad command with args and returns its stdout; a
// failure or any stderr output fails the test.
func runSelf(t *testing.T, args ...string) string {
	t.Helper()
	out, stderr, err := tool(args...)
	if err != nil {
		t.Fatalf("tquad %v: %v\nstderr:\n%s", args, err, stderr)
	}
	if len(stderr) != 0 {
		t.Fatalf("tquad %v wrote to stderr:\n%s", args, stderr)
	}
	return string(out)
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGoldenBaselineSingle: a single run with memsim disabled is
// byte-identical to the output captured before the memsim PR.
func TestGoldenBaselineSingle(t *testing.T) {
	got := runSelf(t, "-config", "small", "-slice", "200000")
	if want := golden(t, "golden_small_200000.txt"); got != want {
		t.Errorf("single-run output drifted from pre-memsim baseline:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestGoldenBaselineSweep: a slice sweep with memsim disabled matches the
// pre-memsim baseline at jobs=1 and jobs=4.
func TestGoldenBaselineSweep(t *testing.T) {
	want := golden(t, "golden_small_sweep.txt")
	for _, jobs := range []string{"1", "4"} {
		got := runSelf(t, "-config", "small", "-slice", "200000,400000", "-jobs", jobs)
		if got != want {
			t.Errorf("jobs=%s sweep output drifted from pre-memsim baseline:\n--- got ---\n%s--- want ---\n%s", jobs, got, want)
		}
	}
}

// TestGoldenCacheSweepDeterministic: the acceptance-criteria sweep — four
// cache geometries off one recorded execution — renders byte-identically
// at any parallelism.
func TestGoldenCacheSweepDeterministic(t *testing.T) {
	const caches = "l1=1k/2/64;l1=2k/4/64;l1=4k/4/64,l2=32k/8/64;l1=8k/8/64,l2=64k/8/64,llc=256k/16/64"
	a := runSelf(t, "-config", "small", "-slice", "200000", "-cache", caches, "-jobs", "1")
	b := runSelf(t, "-config", "small", "-slice", "200000", "-cache", caches, "-jobs", "4")
	if a != b {
		t.Errorf("cache sweep output depends on -jobs:\n--- jobs=1 ---\n%s--- jobs=4 ---\n%s", a, b)
	}
	if !bytes.Contains([]byte(a), []byte("cache sweep comparison")) {
		t.Error("cache sweep output missing the comparison table")
	}
}

// TestGoldenRecordReplayParallel: a recording replays to the live run.
// For each stack policy a plain live run — no -record, so the guest
// executes with the profiler attached — is the reference: the -record
// run prints its report after the trace line, and the replay's -json
// profile and stdout equal the live run's at every -replay-jobs setting
// — inline decode, two and four workers, GOMAXPROCS.
func TestGoldenRecordReplayParallel(t *testing.T) {
	dir := t.TempDir()
	for _, stack := range []string{"include", "exclude"} {
		trace := dir + "/small-" + stack + ".etrace"
		live := dir + "/live-" + stack + ".json"
		wantOut := runSelf(t, "-config", "small", "-slice", "200000", "-stack", stack, "-json", live)
		want, err := os.ReadFile(live)
		if err != nil {
			t.Fatal(err)
		}
		recOut := runSelf(t, "-config", "small", "-slice", "200000", "-stack", stack, "-record", trace)
		if recOut != "event trace written to "+trace+"\n"+wantOut {
			t.Errorf("-stack %s -record output differs from the live run's:\n--- got ---\n%s--- want ---\n%s", stack, recOut, wantOut)
		}
		for _, jobs := range []string{"1", "2", "4", "0"} {
			replayed := dir + "/replay-" + stack + "-" + jobs + ".json"
			out := runSelf(t, "-replay", trace, "-slice", "200000", "-stack", stack, "-replay-jobs", jobs, "-json", replayed)
			got, err := os.ReadFile(replayed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("-stack %s -replay-jobs %s: replayed profile differs from the live run's", stack, jobs)
			}
			if out != wantOut {
				t.Errorf("-stack %s -replay-jobs %s output differs from the live run's:\n--- got ---\n%s--- want ---\n%s",
					stack, jobs, out, wantOut)
			}
		}
	}
}

// TestGoldenSweepReplayJobs: a cache sweep's batched replays decode in
// parallel without changing a byte of output.
func TestGoldenSweepReplayJobs(t *testing.T) {
	const caches = "l1=1k/2/64;l1=4k/4/64,l2=32k/8/64"
	want := runSelf(t, "-config", "small", "-slice", "200000", "-cache", caches, "-replay-jobs", "1")
	got := runSelf(t, "-config", "small", "-slice", "200000", "-cache", caches, "-replay-jobs", "4")
	if got != want {
		t.Errorf("sweep output depends on -replay-jobs:\n--- jobs=1 ---\n%s--- jobs=4 ---\n%s", want, got)
	}
}

// TestSliceSizingHonoursBudget: the -slice 0 sizing run executes under
// the invocation's -max-icount, so a budget too small for the guest
// fails there, naming the sizing run, instead of sizing with the full
// default budget first.
func TestSliceSizingHonoursBudget(t *testing.T) {
	_, stderr, err := tool("-config", "small", "-max-icount", "100000")
	if err == nil {
		t.Fatal("a 100000-instruction budget did not fail the run")
	}
	if !strings.Contains(string(stderr), "sizing run") {
		t.Errorf("error does not name the sizing run:\n%s", stderr)
	}
}
