package main

// Golden tests: the Table II summary and the QDU graph must stay byte-identical to the
// output captured in testdata/.  The tests re-exec the test binary with
// TQUAD_BE_TOOL set, which makes TestMain dispatch straight into main().

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

func TestGoldenOutputs(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"golden_small.txt", []string{"-config", "small"}},
		{"golden_small_include_dot.txt", []string{"-config", "small", "-stack", "include", "-dot", "-"}},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "TQUAD_BE_TOOL=1")
		var errb bytes.Buffer
		cmd.Stderr = &errb
		got, err := cmd.Output()
		if err != nil {
			t.Fatalf("quad %v: %v\nstderr:\n%s", c.args, err, errb.String())
		}
		want, err := os.ReadFile("testdata/" + c.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("quad %v drifted from %s:\n--- got ---\n%s--- want ---\n%s", c.args, c.golden, got, want)
		}
	}
}
