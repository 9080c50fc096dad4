package main

import (
	"bytes"
	"os"
	"testing"
)

// TestRunGolden: the example prints exactly testdata/golden.txt.  After a
// deliberate change, regenerate the golden by running the example with
// its output redirected there.
func TestRunGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("output differs from testdata/golden.txt:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
