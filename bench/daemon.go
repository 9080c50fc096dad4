package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"tquad/internal/jobd"
	"tquad/internal/memsim"
	"tquad/internal/study"
	"tquad/internal/wfs"
)

// api is a client of the daemon's JSON API.
type api struct {
	base string
	c    *http.Client
}

func newAPI(base string) api {
	// Two clients share the transport, so two connections suffice.
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	return api{base: base, c: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (a api) closeIdle() { a.c.Transport.(*http.Transport).CloseIdleConnections() }

// do sends a request and returns the body of a response with the wanted
// status.
func (a api) do(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, a.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := a.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, b)
	}
	return b, nil
}

func (a api) submit(spec []byte) (jobd.Job, error) {
	var j jobd.Job
	b, err := a.do(http.MethodPost, "/api/jobs", spec, http.StatusCreated)
	if err == nil {
		err = json.Unmarshal(b, &j)
	}
	return j, err
}

// pollEvery is how often a client asks whether its job has finished.
const pollEvery = 5 * time.Millisecond

// wait polls the job until it reaches a terminal state.
func (a api) wait(id string) (jobd.Job, error) {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var j jobd.Job
		b, err := a.do(http.MethodGet, "/api/jobs/"+id, nil, http.StatusOK)
		if err == nil {
			err = json.Unmarshal(b, &j)
		}
		if err != nil {
			return j, err
		}
		switch j.State {
		case jobd.StateSucceeded, jobd.StateFailed, jobd.StateCanceled:
			return j, nil
		}
		if time.Now().After(deadline) {
			return j, fmt.Errorf("job %s still %s after 2 minutes", id, j.State)
		}
		time.Sleep(pollEvery)
	}
}

func (a api) artifact(id, name string) ([]byte, error) {
	return a.do(http.MethodGet, "/api/jobs/"+id+"/artifacts/"+name, nil, http.StatusOK)
}

// daemon is an in-process analysis daemon serving on a loopback port.
type daemon struct {
	d   *jobd.Daemon
	srv *jobd.Server
	api api
}

// startDaemon boots a daemon on a fresh data directory under root —
// one worker, two scheduler slots — and waits for its first answer.
func startDaemon(root string) (*daemon, error) {
	dir, err := os.MkdirTemp(root, "data-*")
	if err != nil {
		return nil, err
	}
	d, err := jobd.New(jobd.Options{DataDir: dir, Workers: 1, SchedJobs: 2})
	if err != nil {
		return nil, err
	}
	srv, err := jobd.Serve(d, "127.0.0.1:0")
	if err != nil {
		d.Shutdown()
		return nil, err
	}
	dm := &daemon{d: d, srv: srv, api: newAPI(srv.URL())}
	if _, err := dm.api.do(http.MethodGet, "/api/jobs", nil, http.StatusOK); err != nil {
		dm.stop()
		return nil, err
	}
	return dm, nil
}

// stop closes the server and drains the daemon.
func (dm *daemon) stop() error {
	dm.srv.Close()
	dm.api.closeIdle()
	return dm.d.Shutdown()
}

// Every job has one shape — two slice intervals and one cache
// hierarchy — and the seed draws only which intervals and stack mode.
// With one worker serving two clients, a job's latency includes the
// rest of its partner's job, so jobs of unequal sizes would split the
// latencies into clusters and put the median between them; one shape
// keeps a single cluster, and a seed change cannot pass for a speed
// change.
const (
	jobVariants = 4 // distinct sweeps per seed; each client cycles through them
	jobCache    = "l1=32k/8/64,l2=256k/8/64"
)

// jobIntervals are the slice intervals the seed draws from (the small
// guest runs ~6.5M instructions).
var jobIntervals = []uint64{100000, 150000, 200000, 250000, 300000, 350000, 400000}

// jobSpec is one sweep with the report the daemon must return for it.
type jobSpec struct {
	spec    jobd.JobSpec
	report  []byte
	configs int // scheduler runs the job makes
}

// daemonJobs is two closed-loop HTTP clients against one daemon.  Each
// POSTs a small sweep, polls it every 5 ms until it is terminal, and
// fetches report.txt.
type daemonJobs struct {
	opt  Options
	root string // holds every data directory of the run
	dm   *daemon
	s    *study.Study // the jobs' guest: config small, default input
	ic   uint64
	jobs []jobSpec
	// next counts each client's jobs; client c only touches next[c].
	next [2]int
}

// setup boots the daemon and builds the guest its jobs run, which the
// native runs bracketing each job execute.
func (w *daemonJobs) setup() error {
	if w.dm != nil {
		w.dm.stop()
		w.dm = nil
	}
	if w.root == "" {
		root, err := os.MkdirTemp("", "tqbench-jobd-*")
		if err != nil {
			return err
		}
		w.root = root
	}
	dm, err := startDaemon(w.root)
	if err != nil {
		return err
	}
	w.dm = dm
	s, err := study.New(wfs.Small())
	if err != nil {
		return err
	}
	ic, err := s.NativeICount()
	if err != nil {
		return err
	}
	w.s, w.ic = s, ic
	return nil
}

// prepare draws the seed's sweeps and renders each report in process.
func (w *daemonJobs) prepare() error {
	cache, err := memsim.ParseConfig(jobCache)
	if err != nil {
		return err
	}
	r := rand.New(rand.NewPCG(w.opt.Seed, 1))
	for i := 0; i < jobVariants; i++ {
		spec := jobd.JobSpec{Config: "small", Stack: "include", Caches: []string{cache.Key()}, SkipTables: true}
		if r.IntN(2) == 1 {
			spec.Stack = "exclude"
		}
		for _, j := range r.Perm(len(jobIntervals))[:2] {
			spec.Slices = append(spec.Slices, jobIntervals[j])
		}
		report, configs, err := sweepReport(w.s, spec)
		if err != nil {
			return err
		}
		w.jobs = append(w.jobs, jobSpec{spec: spec, report: report, configs: configs})
	}
	return nil
}

// sweepReport renders in process the report.txt a job of the spec must
// produce — the same scheduler runs, then study.WriteSweepReport — and
// returns how many runs that took.  The spec's slices and caches must be
// explicit and canonical.
func sweepReport(s *study.Study, spec jobd.JobSpec) ([]byte, int, error) {
	incl := spec.Stack != "exclude"
	var cfgs []study.RunConfig
	for _, iv := range spec.Slices {
		for _, c := range spec.Caches {
			cfgs = append(cfgs, study.RunConfig{Kind: study.RunTQUAD, SliceInterval: iv, IncludeStack: incl, Cache: c})
		}
	}
	results, err := schedule(s, cfgs)
	if err != nil {
		return nil, 0, err
	}
	var b bytes.Buffer
	study.WriteSweepReport(&b, results, spec.Slices, len(spec.Caches) > 1,
		study.RenderOptions{Metric: "reads", Kernels: "top", Width: 64, IncludeStack: incl})
	return b.Bytes(), len(cfgs), nil
}

func (w *daemonJobs) op(tr *Tracer, req int64, c int) (opSample, error) {
	// The clients start half a cycle apart.
	p := &w.jobs[(w.next[c]+c*jobVariants/2)%jobVariants]
	w.next[c]++
	body, err := json.Marshal(p.spec)
	if err != nil {
		return opSample{}, err
	}
	root := tr.Begin(req, 0, "daemon-job", "bench")
	defer tr.End(root)
	a := w.dm.api
	var j jobd.Job
	t0 := time.Now()
	tr.Do(req, root, "POST /api/jobs", "jobd", func() { j, err = a.submit(body) })
	if err != nil {
		return opSample{}, err
	}
	tr.Do(req, root, "GET /api/jobs/{id} until terminal", "jobd", func() { j, err = a.wait(j.ID) })
	dur := time.Since(t0)
	if err != nil {
		return opSample{}, err
	}
	if j.State != jobd.StateSucceeded {
		return opSample{}, fmt.Errorf("job %s %s: %s", j.ID, j.State, j.Error)
	}
	var report []byte
	tr.Do(req, root, "GET /api/jobs/{id}/artifacts/report.txt", "jobd", func() { report, err = a.artifact(j.ID, "report.txt") })
	if err != nil {
		return opSample{}, err
	}
	if !bytes.Equal(report, p.report) {
		return opSample{}, fmt.Errorf("job %s report.txt (%d bytes) differs from study.WriteSweepReport (%d bytes)", j.ID, len(report), len(p.report))
	}
	return opSample{dur: dur, configs: p.configs, instr: w.ic}, nil
}

func (w *daemonJobs) native(tr *Tracer, req int64) (time.Duration, error) {
	d, _, _, err := runNative(tr, req, w.s)
	return d, err
}

func (w *daemonJobs) guest() *study.Study { return w.s }

func (w *daemonJobs) digest() string {
	var parts []string
	for _, p := range w.jobs {
		parts = append(parts, p.spec.Summary(), digest(string(p.report)))
	}
	return digest(parts...)
}

func (w *daemonJobs) close() {
	if w.dm != nil {
		w.dm.stop()
	}
	if w.root != "" {
		os.RemoveAll(w.root)
	}
}

// jobdStats are the daemon rung's medians.
type jobdStats struct {
	submitMS, queueS, runS, fetchMS, journalBytesPerJob float64
}

// jobdRung submits rungRepeats small sweeps one after another to a fresh
// daemon and times the API calls, the queue wait and the run the daemon
// journals, and the journal bytes each job costs.
func (l *ladder) jobdRung() (jobdStats, error) {
	root, err := os.MkdirTemp("", "tqbench-jobd-*")
	if err != nil {
		return jobdStats{}, err
	}
	defer os.RemoveAll(root)
	dm, err := startDaemon(root)
	if err != nil {
		return jobdStats{}, err
	}
	running := true
	defer func() {
		if running {
			dm.stop()
		}
	}()
	body := []byte(`{"config":"small","slices":[200000],"skip_tables":true}`)
	var submit, queue, run, fetch []float64
	for i := 0; i < rungRepeats; i++ {
		l.attempted++
		t0 := time.Now()
		j, err := dm.api.submit(body)
		if err != nil {
			return jobdStats{}, err
		}
		submit = append(submit, time.Since(t0).Seconds()*1e3)
		if j, err = dm.api.wait(j.ID); err != nil {
			return jobdStats{}, err
		}
		if j.State != jobd.StateSucceeded {
			return jobdStats{}, fmt.Errorf("job %s %s: %s", j.ID, j.State, j.Error)
		}
		t1 := time.Now()
		if _, err := dm.api.artifact(j.ID, "report.txt"); err != nil {
			return jobdStats{}, err
		}
		fetch = append(fetch, time.Since(t1).Seconds()*1e3)
		queue = append(queue, j.Started.Sub(j.Created).Seconds())
		run = append(run, j.Finished.Sub(j.Started).Seconds())
	}
	running = false
	if err := dm.stop(); err != nil {
		return jobdStats{}, err
	}
	matches, err := filepath.Glob(filepath.Join(root, "data-*", "jobs.jsonl"))
	if err != nil || len(matches) != 1 {
		return jobdStats{}, fmt.Errorf("journal not found under %s", root)
	}
	fi, err := os.Stat(matches[0])
	if err != nil {
		return jobdStats{}, err
	}
	return jobdStats{
		submitMS: Median(submit), queueS: Median(queue), runS: Median(run), fetchMS: Median(fetch),
		journalBytesPerJob: float64(fi.Size()) / rungRepeats,
	}, nil
}
