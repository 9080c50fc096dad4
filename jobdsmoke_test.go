// End-to-end tests of the analysis daemon (internal/jobd, the engine of
// `tquad daemon`): a sweep submitted over HTTP must produce a report
// artifact byte-identical to cmd/tquad's stdout for the same flags, and a daemon
// SIGKILLed mid-sweep must — on restart over the same data directory —
// resume the interrupted job from its checkpoints with zero guest
// re-execution and finish with artifacts identical to an uninterrupted
// run.
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tquad/internal/jobd"
	"tquad/internal/study"
)

// smokeSpec is the sweep the smoke test submits: exactly the golden
// sweep's flags (-config small -slice 200000,400000).
const smokeSpec = `{"config":"small","slices":[200000,400000],"skip_tables":true}`

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

// waitJobHTTP polls the job resource until it reaches a terminal state.
func waitJobHTTP(t *testing.T, base, id string) jobd.Job {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		resp, b := getBody(t, base+"/api/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job: status %d: %s", resp.StatusCode, b)
		}
		var j jobd.Job
		if err := json.Unmarshal(b, &j); err != nil {
			t.Fatalf("job JSON: %v\n%s", err, b)
		}
		switch j.State {
		case jobd.StateSucceeded, jobd.StateFailed, jobd.StateCanceled:
			return j
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("job never reached a terminal state")
	return jobd.Job{}
}

func TestDaemonServiceSmoke(t *testing.T) {
	d, err := jobd.New(jobd.Options{DataDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	srv, err := jobd.Serve(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := srv.URL()

	// A malformed spec is rejected up front, not at execution time.
	if resp, _ := postJSON(t, base+"/api/jobs", `{"config":"enormous"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d, want 400", resp.StatusCode)
	}

	resp, b := postJSON(t, base+"/api/jobs", smokeSpec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var j jobd.Job
	if err := json.Unmarshal(b, &j); err != nil {
		t.Fatalf("submit JSON: %v\n%s", err, b)
	}
	if j.ID == "" || j.State != jobd.StateQueued {
		t.Fatalf("submit returned %+v", j)
	}

	j = waitJobHTTP(t, base, j.ID)
	if j.State != jobd.StateSucceeded {
		t.Fatalf("job finished %s (error %q)", j.State, j.Error)
	}
	if j.GuestExecutions == 0 {
		t.Error("fresh job reports zero guest executions")
	}

	// The service's report artifact is cmd/tquad's golden sweep output,
	// byte for byte: same renderer, same scheduler, same workload.
	resp, report := getBody(t, base+"/api/jobs/"+j.ID+"/artifacts/report.txt")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report artifact: status %d", resp.StatusCode)
	}
	golden, err := os.ReadFile(filepath.Join("cmd", "tquad", "testdata", "golden_small_sweep.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(report, golden) {
		t.Errorf("report.txt differs from cmd/tquad's golden sweep output (%d vs %d bytes)", len(report), len(golden))
	}

	// List, dashboard, detail page and metrics all serve.
	if resp, b := getBody(t, base+"/api/jobs"); resp.StatusCode != http.StatusOK || !strings.Contains(string(b), j.ID) {
		t.Errorf("job list: status %d, body %.120s", resp.StatusCode, b)
	}
	if resp, b := getBody(t, base+"/"); resp.StatusCode != http.StatusOK || !strings.Contains(string(b), j.ID) {
		t.Errorf("dashboard: status %d missing job %s", resp.StatusCode, j.ID)
	}
	if resp, b := getBody(t, base+"/jobs/"+j.ID); resp.StatusCode != http.StatusOK || !strings.Contains(string(b), "report.txt") {
		t.Errorf("detail page: status %d, body %.120s", resp.StatusCode, b)
	}
	if resp, b := getBody(t, base+"/metrics"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(string(b), jobd.MetricJobsSucceeded) {
		t.Errorf("metrics: status %d missing %s", resp.StatusCode, jobd.MetricJobsSucceeded)
	}
	if resp, _ := getBody(t, base+"/api/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// artifactDigests flattens a job's artifacts for comparison.
func artifactDigests(j jobd.Job) map[string]string {
	out := make(map[string]string, len(j.Artifacts))
	for _, a := range j.Artifacts {
		out[a.Name] = a.Digest
	}
	return out
}

func waitJobState(t *testing.T, d *jobd.Daemon, id, state string) jobd.Job {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		if j, ok := d.Job(id); ok && j.State == state {
			return j
		}
		time.Sleep(25 * time.Millisecond)
	}
	j, _ := d.Job(id)
	t.Fatalf("job %s never reached %s (state %s, error %q)", id, state, j.State, j.Error)
	return jobd.Job{}
}

// TestChaosDaemonKillResume kills the daemon mid-sweep and proves the
// durability contract: the restarted daemon resumes the interrupted job
// from its journal and checkpoints, performs zero guest executions, and
// produces artifacts content-identical to an uninterrupted control run.
func TestChaosDaemonKillResume(t *testing.T) {
	spec := jobd.JobSpec{Config: "small", Slices: []uint64{200000, 400000, 150000}, SkipTables: true}

	// Control: the same sweep, uninterrupted.
	control, err := jobd.New(jobd.Options{DataDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cj, err := control.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	cj = waitJobState(t, control, cj.ID, jobd.StateSucceeded)
	control.Shutdown()

	// Victim: the 400000-slice member hangs at its BeforeRun gate, so the
	// sweep records the guest, completes the other members, checkpoints
	// them — and then the daemon dies with the job still running.
	dataDir := t.TempDir()
	victim, err := jobd.New(jobd.Options{
		DataDir: dataDir,
		Workers: 1,
		// The gated member parks inside a scheduler slot; extra slots keep
		// the other members executing on single-CPU machines.
		SchedJobs: 4,
		Hooks: study.Hooks{
			BeforeRun: func(ctx context.Context, cfg study.RunConfig, attempt int) error {
				if cfg.SliceInterval == 400000 {
					<-ctx.Done()
					return ctx.Err()
				}
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	vj, err := victim.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until at least one member is journalled done (its trace is
	// persisted by then — recordings save before completions journal).
	doneFile := filepath.Join(dataDir, "jobs", vj.ID, "checkpoint", "done.jsonl")
	deadline := time.Now().Add(3 * time.Minute)
	for {
		if b, err := os.ReadFile(doneFile); err == nil && bytes.Count(b, []byte("\n")) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpointed members before deadline (%s)", doneFile)
		}
		time.Sleep(25 * time.Millisecond)
	}
	victim.Kill() // SIGKILL equivalence: nothing else reaches the journal

	if fi, err := os.Stat(filepath.Join(dataDir, "jobs.jsonl")); err != nil || fi.Size() == 0 {
		t.Fatalf("job journal missing after kill: %v", err)
	}

	// Restart over the same data directory: the job must come back
	// queued, resume, and succeed without executing the guest again.
	restarted, err := jobd.New(jobd.Options{DataDir: dataDir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Shutdown()
	rj, ok := restarted.Job(vj.ID)
	if !ok {
		t.Fatalf("job %s lost across the kill", vj.ID)
	}
	if !rj.Resumed {
		t.Errorf("restarted job not marked resumed: %+v", rj)
	}
	rj = waitJobState(t, restarted, vj.ID, jobd.StateSucceeded)
	if got := restarted.GuestExecutions(); got != 0 {
		t.Errorf("resumed daemon executed the guest %d times, want 0", got)
	}
	if rj.GuestExecutions != 0 {
		t.Errorf("resumed job journalled %d guest executions, want 0", rj.GuestExecutions)
	}

	// Same artifacts, same bytes: content digests must match the control
	// run exactly, artifact for artifact.
	want, got := artifactDigests(cj), artifactDigests(rj)
	if len(got) != len(want) {
		t.Fatalf("artifact sets differ: control %v, resumed %v", want, got)
	}
	for name, digest := range want {
		if got[name] != digest {
			t.Errorf("artifact %s: control %s, resumed %s", name, digest, got[name])
		}
	}
	if _, ok := want["report.txt"]; !ok {
		t.Fatalf("control run produced no report.txt: %v", want)
	}
}
