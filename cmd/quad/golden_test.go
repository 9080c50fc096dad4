package main

// Golden tests: the Table II summary, the QDU graph and the -json report
// must stay byte-identical to the output captured in testdata/.  The
// tests re-exec the test binary with TQUAD_BE_TOOL set, which makes
// TestMain dispatch straight into main().

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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

// runQuad re-execs the tool with args and returns its stdout, its stderr
// and the error from the wait.
func runQuad(args ...string) (stdout, stderr []byte, err error) {
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
		// json, when set, adds -json FILE to args and names the golden
		// FILE's contents must equal.
		json string
	}{
		{"golden_small.txt", []string{"-config", "small"}, "golden_small_incl.json"},
		{"golden_small_include_dot.txt", []string{"-config", "small", "-stack", "include", "-dot", "-"}, ""},
		{"golden_small_ignore_libs.txt", []string{"-config", "small", "-ignore-libs"}, ""},
	} {
		args := c.args
		jsonPath := filepath.Join(t.TempDir(), "quad.json")
		if c.json != "" {
			args = append(append([]string(nil), args...), "-json", jsonPath)
		}
		got, stderr, err := runQuad(args...)
		if err != nil {
			t.Fatalf("quad %v: %v\nstderr:\n%s", args, err, stderr)
		}
		checkGolden(t, args, got, c.golden)
		if c.json != "" {
			gotJSON, err := os.ReadFile(jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, args, gotJSON, c.json)
		}
	}
}

func checkGolden(t *testing.T, args []string, got []byte, golden string) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("quad %v drifted from %s:\n--- got ---\n%s--- want ---\n%s", args, golden, got, want)
	}
}

// TestJSONWriteFailureExits: a -json file that cannot be written makes
// the tool exit 1 with the file named, not exit 0 with a short file.
func TestJSONWriteFailureExits(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	_, stderr, err := runQuad("-config", "small", "-stack", "include", "-json", "/dev/full")
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("quad -json /dev/full: err %v, want exit status 1\nstderr:\n%s", err, stderr)
	}
	if !strings.Contains(string(stderr), "/dev/full") {
		t.Errorf("stderr does not name the file:\n%s", stderr)
	}
}
