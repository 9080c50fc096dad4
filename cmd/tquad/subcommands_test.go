package main

// Golden and process-level tests of the subcommands, through the same
// re-exec harness as the profiler's tests (see golden_test.go).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"tquad/internal/jobd"
)

// goldenCase is one re-exec of the binary whose stdout — and, where
// json is set, whose -json file — must equal a file under testdata/.
type goldenCase struct {
	golden string
	args   []string
	// json, when set, adds -json FILE to args and names the golden
	// FILE's contents must equal.
	json string
}

// checkGoldens runs each case as a subtest named after its golden and
// -jobs value.
func checkGoldens(t *testing.T, cases []goldenCase) {
	t.Helper()
	for _, c := range cases {
		name := c.golden
		if i := slices.Index(c.args, "-jobs"); i >= 0 {
			name += " jobs=" + c.args[i+1]
		}
		t.Run(name, func(t *testing.T) {
			args := c.args
			jsonPath := filepath.Join(t.TempDir(), "out.json")
			if c.json != "" {
				args = append(append([]string(nil), args...), "-json", jsonPath)
			}
			if got := runSelf(t, args...); got != golden(t, c.golden) {
				t.Errorf("tquad %v drifted from %s:\n--- got ---\n%s--- want ---\n%s", args, c.golden, got, golden(t, c.golden))
			}
			if c.json != "" {
				got, err := os.ReadFile(jsonPath)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != golden(t, c.json) {
					t.Errorf("tquad %v: -json file drifted from %s", args, c.json)
				}
			}
		})
	}
}

// TestQuadGoldenOutputs: `tquad quad` stdout and its -json file stay
// byte-identical to testdata/quad.
func TestQuadGoldenOutputs(t *testing.T) {
	checkGoldens(t, []goldenCase{
		{"quad/golden_small.txt", []string{"quad", "-config", "small"}, "quad/golden_small_incl.json"},
		{"quad/golden_small_include_dot.txt", []string{"quad", "-config", "small", "-stack", "include", "-dot", "-"}, ""},
		{"quad/golden_small_ignore_libs.txt", []string{"quad", "-config", "small", "-ignore-libs"}, ""},
	})
}

// TestGprofGoldenOutputs: `tquad gprof` stdout stays byte-identical to
// testdata/gprof.
func TestGprofGoldenOutputs(t *testing.T) {
	checkGoldens(t, []goldenCase{
		{"gprof/golden_small.txt", []string{"gprof", "-config", "small"}, ""},
		{"gprof/golden_small_instrumented.txt", []string{"gprof", "-config", "small", "-instrumented"}, ""},
		{"gprof/golden_small_all.txt", []string{"gprof", "-config", "small", "-all"}, ""},
	})
}

// TestPhasesGoldenOutputs: `tquad phases` stdout stays byte-identical
// to testdata/phases.
func TestPhasesGoldenOutputs(t *testing.T) {
	checkGoldens(t, []goldenCase{
		{"phases/golden_small.txt", []string{"phases", "-config", "small"}, ""},
	})
}

// TestStudyGoldenOutputs: `tquad study` stdout stays byte-identical to
// testdata/study at any -jobs.
func TestStudyGoldenOutputs(t *testing.T) {
	const caches = "l1=1k/2/64;l1=4k/4/64,l2=32k/8/64"
	checkGoldens(t, []goldenCase{
		{"study/golden_small.txt", []string{"study", "-config", "small", "-jobs", "1"}, ""},
		{"study/golden_small.txt", []string{"study", "-config", "small", "-jobs", "4"}, ""},
		{"study/golden_small_cache.txt", []string{"study", "-config", "small", "-cache", caches, "-jobs", "1"}, ""},
		{"study/golden_small_cache.txt", []string{"study", "-config", "small", "-cache", caches, "-jobs", "4"}, ""},
	})
}

// TestRunGoldenOverhead: the -overhead slowdown grid and the run
// summary stay byte-identical to the golden.  The first line holds host
// timing and is not compared.
func TestRunGoldenOverhead(t *testing.T) {
	out := runSelf(t, "run", "-config", "small", "-overhead")
	_, got, ok := strings.Cut(out, "\n")
	if !ok {
		t.Fatalf("tquad run -overhead printed one line:\n%s", out)
	}
	if want := golden(t, "run/golden_small_overhead.txt"); got != want {
		t.Errorf("tquad run -overhead drifted from the golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// checkJSONWriteFailure: a -json file that cannot be written makes the
// subcommand exit 1 with the file named, not exit 0 with a short file.
func checkJSONWriteFailure(t *testing.T, args ...string) {
	t.Helper()
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	_, stderr, err := tool(append(args, "-json", "/dev/full")...)
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("tquad %v -json /dev/full: err %v, want exit status 1\nstderr:\n%s", args, err, stderr)
	}
	if !bytes.Contains(stderr, []byte("/dev/full")) {
		t.Errorf("tquad %v: stderr does not name the file:\n%s", args, stderr)
	}
}

func TestQuadJSONWriteFailureExits(t *testing.T) {
	checkJSONWriteFailure(t, "quad", "-config", "small", "-stack", "include")
}

func TestPhasesJSONWriteFailureExits(t *testing.T) {
	checkJSONWriteFailure(t, "phases", "-config", "small")
}

// TestDaemonCommand drives `tquad daemon` as a process: it serves its
// dashboard, /metrics and the Go profiler at the URL it prints, runs
// the smoke sweep to success, and drains and exits 0 on SIGTERM.
func TestDaemonCommand(t *testing.T) {
	cmd := selfCommand("daemon", "-data", t.TempDir(), "-listen", "127.0.0.1:0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	lines := bufio.NewScanner(stdout)
	if !lines.Scan() {
		t.Fatalf("daemon printed nothing; stderr:\n%s", stderr.String())
	}
	rest, ok := strings.CutPrefix(lines.Text(), "tquadd serving at ")
	base, _, _ := strings.Cut(rest, " ")
	if !ok || !strings.HasPrefix(base, "http://127.0.0.1:") {
		t.Fatalf("unexpected first line %q", lines.Text())
	}

	for path, want := range map[string]string{
		"/":             "tQUAD analysis jobs",
		"/metrics":      jobd.MetricQueueDepth,
		"/debug/pprof/": "goroutine",
	} {
		code, body := httpCall(t, "GET", base+path, "")
		if code != http.StatusOK || !strings.Contains(body, want) {
			t.Errorf("GET %s: status %d, want 200 with %q", path, code, want)
		}
	}

	code, body := httpCall(t, "POST", base+"/api/jobs", `{"config":"small","slices":[200000,400000],"skip_tables":true}`)
	var j jobd.Job
	if err := json.Unmarshal([]byte(body), &j); code != http.StatusCreated || err != nil {
		t.Fatalf("submit: status %d, err %v: %s", code, err, body)
	}
	for deadline := time.Now().Add(2 * time.Minute); j.State != jobd.StateSucceeded; time.Sleep(25 * time.Millisecond) {
		if time.Now().After(deadline) || j.State == jobd.StateFailed || j.State == jobd.StateCanceled {
			t.Fatalf("job %s ended %s (error %q)", j.ID, j.State, j.Error)
		}
		_, body := httpCall(t, "GET", base+"/api/jobs/"+j.ID, "")
		if err := json.Unmarshal([]byte(body), &j); err != nil {
			t.Fatalf("job JSON: %v\n%s", err, body)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var tail []string
	for lines.Scan() {
		tail = append(tail, lines.Text())
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("daemon exit after SIGTERM: %v\nstderr:\n%s", err, stderr.String())
	}
	if want := []string{"tquadd: draining...", "tquadd: stopped"}; strings.Join(tail, "\n") != strings.Join(want, "\n") {
		t.Errorf("shutdown output %q, want %q", tail, want)
	}
}

// httpCall sends one request — a POST carries body as JSON — and returns
// the status and response body.
func httpCall(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}
