// HTTP surface of the daemon: a small JSON API plus a server-rendered
// dashboard (no JavaScript beyond EventSource; pages work with curl).
//
//	POST /api/jobs                       submit a JobSpec, 201 + job JSON
//	GET  /api/jobs                       all jobs, submission order
//	GET  /api/jobs/{id}                  one job
//	POST /api/jobs/{id}/cancel           cancel queued/running
//	POST /api/jobs/{id}/retry            re-queue failed/canceled
//	GET  /api/jobs/{id}/artifacts/{name} download one artifact
//	GET  /jobs/{id}/events               live progress (SSE; ?format=jsonl)
//	GET  /                               dashboard: submit form + job table
//	GET  /jobs/{id}                      job detail page
//	GET  /metrics                        daemon metrics (Prometheus text)
//	GET  /debug/pprof/                   the Go profiler (from live.Serve)
package jobd

import (
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tquad/internal/obs/live"
)

// maxSubmitBytes bounds a submission body; a spec is a few hundred
// bytes, so anything near this is not one.  Larger bodies get 413.
const maxSubmitBytes = 1 << 20

// Server serves one Daemon over HTTP.
type Server struct {
	d *Daemon
	*live.Server
}

// Serve binds addr (e.g. ":8077", ":0") and starts serving in a
// background goroutine.  URL reports the actually-bound port (so ":0"
// reports something dialable); Close stops accepting and drops open
// connections — the daemon itself is shut down separately.
func Serve(d *Daemon, addr string) (*Server, error) {
	s := &Server{d: d}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/jobs", s.apiSubmit)
	mux.HandleFunc("GET /api/jobs", s.apiList)
	mux.HandleFunc("GET /api/jobs/{id}", s.apiJob)
	mux.HandleFunc("POST /api/jobs/{id}/cancel", s.apiCancel)
	mux.HandleFunc("POST /api/jobs/{id}/retry", s.apiRetry)
	mux.HandleFunc("GET /api/jobs/{id}/artifacts/{name}", s.apiArtifact)
	mux.HandleFunc("GET /jobs/{id}/events", s.events)
	mux.HandleFunc("GET /jobs/{id}", s.jobPage)
	mux.HandleFunc("POST /submit", s.formSubmit)
	mux.HandleFunc("GET /{$}", s.dashboard)
	srv, err := live.Serve(addr, d.Registry(), mux)
	if err != nil {
		return nil, err
	}
	s.Server = srv
	return s, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// statusFor maps daemon errors onto HTTP statuses: unknown job → 404,
// everything else the caller could fix → 409.
func statusFor(err error) int {
	if strings.Contains(err.Error(), "no such job") {
		return http.StatusNotFound
	}
	return http.StatusConflict
}

// badBody answers a submission whose body could not be read: 413 when
// it exceeded maxSubmitBytes, 400 otherwise.
func badBody(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeErr(w, status, fmt.Errorf("jobd: bad spec: %w", err))
}

func (s *Server) apiSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil && err != io.EOF {
		badBody(w, err)
		return
	}
	job, err := s.d.Submit(spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/api/jobs/"+job.ID)
	writeJSON(w, http.StatusCreated, job)
}

func (s *Server) apiList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.d.Jobs())
}

func (s *Server) apiJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.d.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("jobd: no such job %s", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) apiCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.d.Cancel(r.PathValue("id")); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "canceling"})
}

func (s *Server) apiRetry(w http.ResponseWriter, r *http.Request) {
	if err := s.d.Retry(r.PathValue("id")); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "queued"})
}

func (s *Server) apiArtifact(w http.ResponseWriter, r *http.Request) {
	job, ok := s.d.Job(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	art, ok := job.Artifact(r.PathValue("name"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	f, err := s.d.art.Open(art.Digest)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(art.Name, ".svg"):
		w.Header().Set("Content-Type", "image/svg+xml")
	case strings.HasSuffix(art.Name, ".json"):
		w.Header().Set("Content-Type", "application/json")
	case strings.HasSuffix(art.Name, ".txt"):
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	default:
		w.Header().Set("Content-Type", "application/octet-stream")
	}
	w.Header().Set("Content-Length", strconv.FormatInt(art.Size, 10))
	w.Header().Set("ETag", `"`+art.Digest+`"`)
	io.Copy(w, f)
}

// events streams the running job's per-run lifecycle events.  Jobs not
// currently executing have no live stream; 404 tells the client to fall
// back to polling the job resource.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	t := s.d.Tracker(r.PathValue("id"))
	if t == nil {
		http.NotFound(w, r)
		return
	}
	live.StreamEvents(w, r, t)
}

// formSubmit backs the dashboard's submit form.
func (s *Server) formSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBytes)
	if err := r.ParseForm(); err != nil {
		badBody(w, err)
		return
	}
	spec := JobSpec{
		Config:     r.FormValue("config"),
		Stack:      r.FormValue("stack"),
		Engine:     r.FormValue("engine"),
		Metric:     r.FormValue("metric"),
		Kernels:    r.FormValue("kernels"),
		SkipTables: r.FormValue("tables") == "skip",
	}
	for _, f := range strings.Fields(strings.ReplaceAll(r.FormValue("slices"), ",", " ")) {
		iv, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("jobd: bad slice %q: %w", f, err))
			return
		}
		spec.Slices = append(spec.Slices, iv)
	}
	// Cache hierarchies keep cmd/tquad's -cache syntax: commas separate
	// levels within one hierarchy, semicolons separate swept hierarchies.
	for _, f := range strings.Split(r.FormValue("caches"), ";") {
		if f = strings.TrimSpace(f); f != "" {
			spec.Caches = append(spec.Caches, f)
		}
	}
	job, err := s.d.Submit(spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	http.Redirect(w, r, "/jobs/"+job.ID, http.StatusSeeOther)
}

const pageHead = `<!doctype html><html><head><meta charset="utf-8"><title>%s</title><style>
body{font-family:system-ui,sans-serif;margin:2rem;max-width:72rem}
table{border-collapse:collapse;margin:1rem 0}
td,th{border:1px solid #ccc;padding:.3rem .6rem;text-align:left;font-variant-numeric:tabular-nums}
th{background:#f3f3f3}
.state-queued{color:#777}.state-running{color:#0a58ca}.state-succeeded{color:#1a7f37}
.state-failed{color:#b02a37}.state-canceled{color:#997404}
form.inline{display:inline}
input,select{margin:.15rem 0}
code{background:#f6f6f6;padding:.1rem .3rem}
img.chart{max-width:100%%;border:1px solid #eee;margin:.5rem 0}
` + live.RunsTableStyle + `
</style></head><body>
`

// dashboard renders the job table and the submit form.
func (s *Server) dashboard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, pageHead, "tquadd")
	fmt.Fprintf(w, `<meta http-equiv="refresh" content="3">`)
	fmt.Fprintf(w, "<h1>tquadd — tQUAD analysis jobs</h1>\n")

	fmt.Fprintf(w, `<form method="post" action="/submit">
<fieldset><legend>submit a sweep</legend>
config <select name="config"><option>small</option><option>study</option></select>
slices <input name="slices" size="24" placeholder="200000,400000 (empty = auto)">
caches <input name="caches" size="24" placeholder="l1=32k/8/64,l2=256k/8/64">
stack <select name="stack"><option>include</option><option>exclude</option></select>
engine <select name="engine"><option>block</option><option>step</option></select>
metric <select name="metric"><option>reads</option><option>writes</option><option>both</option></select>
kernels <select name="kernels"><option>top</option><option>last</option><option>all</option></select>
tables <select name="tables"><option value="render">render</option><option value="skip">skip</option></select>
<button>submit</button>
</fieldset></form>
`)

	jobs := s.d.Jobs()
	fmt.Fprintf(w, "<h2>jobs (%d)</h2>\n<table><tr><th>id</th><th>spec</th><th>state</th><th>attempt</th><th>guest execs</th><th>created</th><th></th></tr>\n", len(jobs))
	for i := len(jobs) - 1; i >= 0; i-- { // newest first
		j := jobs[i]
		fmt.Fprintf(w, `<tr><td><a href="/jobs/%s">%s</a></td><td>%s</td><td class="state-%s">%s%s</td><td>%d</td><td>%d</td><td>%s</td><td>%s</td></tr>`+"\n",
			j.ID, j.ID, html.EscapeString(j.Spec.Summary()), j.State, j.State,
			resumedTag(j), j.Attempt, j.GuestExecutions,
			j.Created.Format(time.RFC3339), actionButtons(j))
	}
	fmt.Fprintf(w, "</table>\n<p><a href=\"/metrics\">metrics</a> · <a href=\"/api/jobs\">api</a></p>\n</body></html>\n")
}

func resumedTag(j Job) string {
	if j.Resumed && !terminal(j.State) {
		return " (resumed)"
	}
	return ""
}

func actionButtons(j Job) string {
	switch {
	case !terminal(j.State):
		return fmt.Sprintf(`<form class="inline" method="post" action="/api/jobs/%s/cancel"><button>cancel</button></form>`, j.ID)
	case j.State == StateFailed || j.State == StateCanceled:
		return fmt.Sprintf(`<form class="inline" method="post" action="/api/jobs/%s/retry"><button>retry</button></form>`, j.ID)
	}
	return ""
}

// jobPage renders one job: state, error, live per-run progress while
// running (updated in place from the SSE stream), artifacts and the
// inline bandwidth chart once succeeded.
func (s *Server) jobPage(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.d.Job(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, pageHead, "tquadd — "+j.ID)
	if !terminal(j.State) {
		fmt.Fprintf(w, `<meta http-equiv="refresh" content="3">`)
	}
	fmt.Fprintf(w, "<h1>%s <span class=\"state-%s\">%s%s</span></h1>\n<p><a href=\"/\">&larr; all jobs</a></p>\n",
		j.ID, j.State, j.State, resumedTag(j))
	fmt.Fprintf(w, "<p>%s · attempt %d · guest executions %d</p>\n",
		html.EscapeString(j.Spec.Summary()), j.Attempt, j.GuestExecutions)
	if j.Error != "" {
		fmt.Fprintf(w, "<p><strong>error:</strong> <code>%s</code></p>\n", html.EscapeString(j.Error))
	}

	if t := s.d.Tracker(id); t != nil {
		fmt.Fprintf(w, "<h2>runs</h2>\n")
		live.RunsTable(w, t.Snapshot())
		fmt.Fprintf(w, "\n<p>live: <a href=\"/jobs/%s/events\">SSE stream</a></p>\n", j.ID)
	}

	if len(j.Artifacts) > 0 {
		fmt.Fprintf(w, "<h2>artifacts</h2>\n<table><tr><th>name</th><th>size</th><th>digest</th></tr>\n")
		for _, a := range j.Artifacts {
			fmt.Fprintf(w, `<tr><td><a href="/api/jobs/%s/artifacts/%s">%s</a></td><td>%d</td><td><code>%s</code></td></tr>`+"\n",
				j.ID, a.Name, html.EscapeString(a.Name), a.Size, a.Digest)
		}
		fmt.Fprintf(w, "</table>\n")
		if _, ok := j.Artifact("chart.svg"); ok {
			fmt.Fprintf(w, `<img class="chart" src="/api/jobs/%s/artifacts/chart.svg" alt="bandwidth chart">`+"\n", j.ID)
		}
	}
	fmt.Fprintf(w, "%s</body></html>\n", actionButtons(j))
}
