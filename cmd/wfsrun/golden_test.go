package main

// Golden test: the -overhead slowdown grid and the run summary must stay
// byte-identical to the output captured in testdata/.  The first line
// holds host timing and is not compared.  The test re-execs the test
// binary with TQUAD_BE_TOOL set, which makes TestMain dispatch straight
// into main().

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

func TestGoldenOverhead(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-config", "small", "-overhead")
	cmd.Env = append(os.Environ(), "TQUAD_BE_TOOL=1")
	var errb bytes.Buffer
	cmd.Stderr = &errb
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("wfsrun -overhead: %v\nstderr:\n%s", err, errb.String())
	}
	_, got, ok := bytes.Cut(out, []byte("\n"))
	if !ok {
		t.Fatalf("wfsrun -overhead printed one line:\n%s", out)
	}
	want, err := os.ReadFile("testdata/golden_small_overhead.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wfsrun -overhead drifted from the golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
