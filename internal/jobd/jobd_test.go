package jobd

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tquad/internal/obs"
	"tquad/internal/study"
)

func TestSpecNormalizeDefaults(t *testing.T) {
	var s JobSpec
	if err := s.normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if s.Workload != "wfs" || s.Config != "small" || s.Stack != "include" ||
		s.Engine != "block" || s.Metric != "reads" || s.Kernels != "top" || s.Width != 64 {
		t.Fatalf("unexpected defaults: %+v", s)
	}
	if len(s.Slices) != 1 || s.Slices[0] != 0 {
		t.Fatalf("slices default: %v", s.Slices)
	}
}

func TestSpecNormalizeDedupAndCanonicalise(t *testing.T) {
	s := JobSpec{
		Slices: []uint64{400000, 200000, 400000},
		Caches: []string{"l1=32k/8/64", "l1=32768/8/64"},
	}
	if err := s.normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if len(s.Slices) != 2 || s.Slices[0] != 400000 || s.Slices[1] != 200000 {
		t.Fatalf("slice dedup: %v", s.Slices)
	}
	// 32k and 32768 canonicalise to the same geometry key.
	if len(s.Caches) != 1 {
		t.Fatalf("cache dedup: %v", s.Caches)
	}
}

func TestSpecNormalizeRejects(t *testing.T) {
	for _, bad := range []JobSpec{
		{Workload: "nope"},
		{Config: "huge"},
		{Stack: "sideways"},
		{Engine: "jit"},
		{Metric: "latency"},
		{Kernels: "bottom"},
		{Caches: []string{"not-a-cache"}},
		{Retries: -1},
		{Width: -3},
	} {
		s := bad
		if err := s.normalize(); err == nil {
			t.Errorf("normalize(%+v): want error", bad)
		}
	}
}

func TestStoreReplayResumesRunningAndSkipsTornLine(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	spec := JobSpec{}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	j1, err := st.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	j2, err := st.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := st.markStart(j1.ID); err != nil {
		t.Fatalf("start: %v", err)
	}
	if err := st.markSucceeded(j2.ID, []Artifact{{Name: "report.txt", Digest: "sha256:" + strings.Repeat("ab", 32), Size: 7}}, 3); err != nil {
		t.Fatalf("finish: %v", err)
	}
	st.Close()

	// A kill mid-append leaves a torn final line; replay must shrug it off.
	f, err := os.OpenFile(filepath.Join(dir, "jobs.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"finish","job":"` + j1.ID + `","sta`)
	f.Close()

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	g1, ok := st2.Get(j1.ID)
	if !ok {
		t.Fatalf("job %s lost on replay", j1.ID)
	}
	if g1.State != StateQueued || !g1.Resumed || g1.Attempt != 1 {
		t.Fatalf("interrupted job after replay: state=%s resumed=%v attempt=%d", g1.State, g1.Resumed, g1.Attempt)
	}
	g2, _ := st2.Get(j2.ID)
	if g2.State != StateSucceeded || g2.GuestExecutions != 3 || len(g2.Artifacts) != 1 {
		t.Fatalf("finished job after replay: %+v", g2)
	}
	// ID allocation continues past the journalled maximum.
	j3, err := st2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID <= j2.ID {
		t.Fatalf("ID went backwards: %s after %s", j3.ID, j2.ID)
	}
}

func TestArtifactStoreDedupAndRoundTrip(t *testing.T) {
	as, err := openArtifacts(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("effective bandwidth report\n")
	a1, err := as.PutBytes("report.txt", content)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	a2, err := as.PutBytes("copy.txt", content)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if a1.Digest != a2.Digest {
		t.Fatalf("same content, different digests: %s vs %s", a1.Digest, a2.Digest)
	}
	if a1.Size != int64(len(content)) {
		t.Fatalf("size %d, want %d", a1.Size, len(content))
	}
	f, err := as.Open(a1.Digest)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	got, _ := io.ReadAll(f)
	f.Close()
	if !bytes.Equal(got, content) {
		t.Fatalf("round trip: got %q", got)
	}
	for _, bad := range []string{"sha256:short", "md5:" + strings.Repeat("ab", 32), "sha256:" + strings.Repeat("zz", 32), "../../etc/passwd"} {
		if _, err := as.Open(bad); err == nil {
			t.Errorf("Open(%q): want error", bad)
		}
	}
}

// TestDaemonLifecycle drives the full queue: one worker, a blocked
// running job, a queued job canceled while waiting, the running job
// canceled mid-guest, a retry, and finally a real sweep to success with
// artifacts.
func TestDaemonLifecycle(t *testing.T) {
	block := make(chan struct{})
	d, err := New(Options{
		DataDir: t.TempDir(),
		Workers: 1,
		Hooks: study.Hooks{
			BeforeRun: func(ctx context.Context, cfg study.RunConfig, attempt int) error {
				select {
				case <-block:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()

	spec := JobSpec{Config: "small", Slices: []uint64{200000}, SkipTables: true}
	j1, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d, j1.ID, StateRunning)
	j2, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// j2 is queued behind the blocked j1: cancel is immediate.
	if err := d.Cancel(j2.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	waitState(t, d, j2.ID, StateCanceled)

	// Cancelling the running job unblocks the worker via its context.
	if err := d.Cancel(j1.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	waitState(t, d, j1.ID, StateCanceled)
	if err := d.Cancel(j1.ID); err == nil {
		t.Fatal("cancel of a terminal job: want error")
	}

	// Retry re-queues; with the gate open the sweep runs to success.
	close(block)
	if err := d.Retry(j2.ID); err != nil {
		t.Fatalf("retry: %v", err)
	}
	waitState(t, d, j2.ID, StateSucceeded)
	got, _ := d.Job(j2.ID)
	for _, name := range []string{"report.txt", "chart.svg", "trace.etrace"} {
		if _, ok := got.Artifact(name); !ok {
			t.Errorf("missing artifact %s (have %v)", name, got.Artifacts)
		}
	}
	if got.GuestExecutions == 0 {
		t.Error("fresh run reported zero guest executions")
	}
	if err := d.Retry(j2.ID); err == nil {
		t.Error("retry of a succeeded job: want error")
	}
}

// TestTerminalJobLeftRunningSet: a job leaves the running set before
// its terminal state becomes visible, so a job that reads as succeeded
// can no longer be cancelled or found running.  The test holds the
// daemon's lock once the job's work is done: if the store can report
// the job succeeded while it still sits in the running set, the
// invariant is broken.
func TestTerminalJobLeftRunningSet(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	d, err := New(Options{
		DataDir: t.TempDir(),
		Workers: 1,
		Hooks: study.Hooks{
			BeforeRun: func(ctx context.Context, cfg study.RunConfig, attempt int) error {
				once.Do(func() { close(entered) })
				<-gate
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	j, err := d.Submit(JobSpec{Config: "small", Slices: []uint64{200000}, SkipTables: true})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // past markStart's gauge update: nothing else takes d.mu
	d.mu.Lock()
	close(gate)
	deadline := time.Now().Add(60 * time.Second)
	for d.GuestExecutions() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// The job's work is done; give its outcome time to reach the store.
	for end := time.Now().Add(time.Second); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if got, _ := d.Job(j.ID); got.State == StateSucceeded && d.running[j.ID] != nil {
			d.mu.Unlock()
			t.Fatal("job reads as succeeded while still in the running set")
		}
	}
	d.mu.Unlock()
	waitState(t, d, j.ID, StateSucceeded)
	if err := d.Cancel(j.ID); err == nil {
		t.Error("cancel of a succeeded job: want error")
	}
	if tr := d.Tracker(j.ID); tr != nil {
		t.Error("succeeded job still has a live tracker")
	}
}

// TestArchivedTraceMatchesCheckpoint: the trace.etrace artifact is the
// job's checkpointed recording, byte for byte, and the job's tables.txt
// holds Tables I–IV exactly as `tquad study -config small` prints them.
func TestArchivedTraceMatchesCheckpoint(t *testing.T) {
	d, err := New(Options{DataDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	j, err := d.Submit(JobSpec{Config: "small", Slices: []uint64{200000}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d, j.ID, StateSucceeded)
	got, _ := d.Job(j.ID)
	archived := artifactBytes(t, d, got, "trace.etrace")
	ckpt, err := os.ReadFile(filepath.Join(d.store.CheckpointDir(j.ID), "trace-guest.etrace"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(archived, ckpt) {
		t.Errorf("archived trace (%d bytes) differs from the checkpoint's (%d bytes)", len(archived), len(ckpt))
	}

	// Tables I–III are lines 6–72 of the study golden, Table IV lines
	// 105–150.
	golden, err := os.ReadFile("../../cmd/tquad/testdata/study/golden_small.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(golden), "\n")
	want := strings.Join(lines[5:72], "") + strings.Join(lines[104:150], "")
	if tables := string(artifactBytes(t, d, got, "tables.txt")); tables != want {
		t.Errorf("tables.txt differs from the study golden's tables:\n--- got ---\n%s--- want ---\n%s", tables, want)
	}
}

// artifactBytes reads the named artifact of job j from the store.
func artifactBytes(t *testing.T, d *Daemon, j Job, name string) []byte {
	t.Helper()
	a, ok := j.Artifact(name)
	if !ok {
		t.Fatalf("no %s artifact (have %v)", name, j.Artifacts)
	}
	f, err := d.art.Open(a.Digest)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func waitState(t *testing.T, d *Daemon, id, state string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := d.Job(id); ok && j.State == state {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	j, _ := d.Job(id)
	t.Fatalf("job %s never reached %s (state %s, err %q)", id, state, j.State, j.Error)
}

// TestDaemonMergesJobCounters: a job's scheduler counters reach the
// daemon's /metrics once the job ends.  The job's only run fails its
// first attempt transiently and succeeds on the retry, so the daemon
// must report exactly one retry.
func TestDaemonMergesJobCounters(t *testing.T) {
	d, err := New(Options{
		DataDir: t.TempDir(),
		Workers: 1,
		Hooks: study.Hooks{
			BeforeRun: func(ctx context.Context, cfg study.RunConfig, attempt int) error {
				if attempt == 0 {
					return study.MarkTransient(errors.New("injected transient failure"))
				}
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	srv, err := Serve(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	j, err := d.Submit(JobSpec{Config: "small", Slices: []uint64{200000}, Retries: 1, SkipTables: true})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d, j.ID, StateSucceeded)
	code, body := httpDo(t, "GET", srv.URL()+"/metrics", "")
	if want := obs.MetricSchedRetries + " 1\n"; code != http.StatusOK || !strings.Contains(body, want) {
		t.Errorf("/metrics: status %d, missing %q:\n%s", code, want, body)
	}
}

// TestSubmitBodyLimit: a submission body over 1 MiB is refused with 413
// on both submit routes, and the daemon keeps serving.
func TestSubmitBodyLimit(t *testing.T) {
	d, err := New(Options{DataDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	srv, err := Serve(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Both bodies are valid submissions padded past the limit.
	pad := strings.Repeat(" ", 2<<20)
	huge := `{"config":"small",` + pad + `"slices":[200000],"skip_tables":true}`
	if code, body := httpDo(t, "POST", srv.URL()+"/api/jobs", huge); code != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /api/jobs with a 2 MiB body: status %d, want 413: %.200s", code, body)
	}
	form := "config=small&pad=" + strings.Repeat("x", 2<<20) + "&slices=200000&tables=skip"
	if code, _ := httpDo(t, "POST", srv.URL()+"/submit", form); code != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /submit with a 2 MiB form: status %d, want 413", code)
	}
	if code, _ := httpDo(t, "GET", srv.URL()+"/api/jobs", ""); code != http.StatusOK {
		t.Errorf("GET /api/jobs after the oversized submits: status %d", code)
	}
	if n := len(d.Jobs()); n != 0 {
		t.Errorf("oversized submits created %d jobs", n)
	}
}

// httpDo sends one request (a POST body is sent as JSON, or as a form
// when it does not start with '{') and returns the status and body.
func httpDo(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if method == "POST" {
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		if strings.HasPrefix(body, "{") {
			req.Header.Set("Content-Type", "application/json")
		}
	}
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
