package main

// Golden tests for the command itself: with memsim disabled the output
// must stay byte-identical to the pre-memsim baseline captured in
// testdata/, and a cache sweep must render identically at any -jobs.
// The tests re-exec the test binary with TQUAD_BE_TOOL set, which makes
// TestMain dispatch straight into main() — a real process-level run,
// flag parsing and exit codes included, with no flag-redefinition games.

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("TQUAD_BE_TOOL") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSelf re-executes this test binary as the tquad command and returns
// its stdout.
func runSelf(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TQUAD_BE_TOOL=1")
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("tquad %v: %v\nstderr:\n%s", args, err, errb.String())
	}
	if errb.Len() != 0 {
		t.Fatalf("tquad %v wrote to stderr:\n%s", args, errb.String())
	}
	return out.String()
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

// TestGoldenRecordReplayParallel: -record then -replay must reproduce
// the live run's profile.  For each stack policy the live -record run
// exports its profile with -json, and the replay's -json profile must be
// byte-identical to it at every -replay-jobs setting — inline decode,
// two and four workers, GOMAXPROCS — with the printed charts and
// statistics identical across those settings too.
func TestGoldenRecordReplayParallel(t *testing.T) {
	dir := t.TempDir()
	for _, stack := range []string{"include", "exclude"} {
		trace := dir + "/small-" + stack + ".etrace"
		live := dir + "/live-" + stack + ".json"
		runSelf(t, "-config", "small", "-slice", "200000", "-stack", stack, "-record", trace, "-json", live)
		want, err := os.ReadFile(live)
		if err != nil {
			t.Fatal(err)
		}
		var wantOut string
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
			if wantOut == "" {
				wantOut = out
			} else if out != wantOut {
				t.Errorf("-stack %s -replay-jobs %s output differs from -replay-jobs 1:\n--- got ---\n%s--- want ---\n%s",
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
