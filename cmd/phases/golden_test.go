package main

// Golden tests: the phase table must stay byte-identical to the
// output captured in testdata/.  The tests re-exec the test binary with
// TQUAD_BE_TOOL set, which makes TestMain dispatch straight into main().

import (
	"bytes"
	"errors"
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

// runPhases re-execs the tool with args and returns its stdout, its
// stderr and the error from the wait.
func runPhases(args ...string) (stdout, stderr []byte, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TQUAD_BE_TOOL=1")
	var errb bytes.Buffer
	cmd.Stderr = &errb
	stdout, err = cmd.Output()
	return stdout, errb.Bytes(), err
}

func TestGoldenOutputs(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"golden_small.txt", []string{"-config", "small"}},
	} {
		got, stderr, err := runPhases(c.args...)
		if err != nil {
			t.Fatalf("phases %v: %v\nstderr:\n%s", c.args, err, stderr)
		}
		want, err := os.ReadFile("testdata/" + c.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("phases %v drifted from %s:\n--- got ---\n%s--- want ---\n%s", c.args, c.golden, got, want)
		}
	}
}

// TestJSONWriteFailureExits: a -json file that cannot be written makes
// the tool exit 1 with the file named, not exit 0 with a short file.
func TestJSONWriteFailureExits(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	_, stderr, err := runPhases("-config", "small", "-json", "/dev/full")
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("phases -json /dev/full: err %v, want exit status 1\nstderr:\n%s", err, stderr)
	}
	if !strings.Contains(string(stderr), "/dev/full") {
		t.Errorf("stderr does not name the file:\n%s", stderr)
	}
}
