package live

import (
	"encoding/json"
	"fmt"
	"html"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"tquad/internal/obs"
)

// readHeaderTimeout bounds how long a client may take to send its
// request headers.  There is deliberately no write timeout: /events
// streams stay open for a whole sweep.
const readHeaderTimeout = 10 * time.Second

// Server is a running HTTP server — the one every tQUAD front end
// serves from: the -serve progress page and the job daemon alike.
// Close stops it.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr ("host:port"; ":0" asks the kernel for an ephemeral
// port) and serves, in a background goroutine, reg at /metrics (nil
// serves an empty exposition), the Go profiler under /debug/pprof/, and
// h at every other path.
func Serve(addr string, reg *obs.Registry, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	// Registry reads are snapshot-based and lock-protected, so scraping
	// mid-run is safe by construction.
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout}}
	go s.srv.Serve(ln)
	return s, nil
}

// URL returns the server's base URL with the actually-bound port.
// Wildcard binds (":0", "0.0.0.0:8080", "[::]") report an unspecified
// host, which no browser or client can dial; the loopback address is
// substituted so the URL is directly usable.
func (s *Server) URL() string {
	addr := s.ln.Addr().String()
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// Close stops the server, severing open streams.
func (s *Server) Close() error { return s.srv.Close() }

// Options configures the progress page.
type Options struct {
	// Tracker backs GET /events (its bus) and GET / (its snapshot).
	// Required.
	Tracker *Tracker
	// Chart, when non-nil, supplies the progress page's SVG bandwidth
	// chart of completed runs, re-rendered per request.
	Chart func() string
	// Title heads the progress page (defaults to "tquad").
	Title string
}

// Progress returns the -serve handler to pass to Serve: the live
// progress page at / and the tracker's lifecycle event stream at
// /events.
func Progress(o Options) (http.Handler, error) {
	if o.Tracker == nil {
		return nil, fmt.Errorf("live: the progress page requires a Tracker")
	}
	if o.Title == "" {
		o.Title = "tquad"
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) { StreamEvents(w, r, o.Tracker) })
	mux.HandleFunc("/{$}", func(w http.ResponseWriter, r *http.Request) { writeProgressPage(w, o) })
	return mux, nil
}

// StreamEvents streams a tracker's lifecycle events as SSE (default) or
// JSONL (?format=jsonl) — the -serve /events endpoint and the daemon's
// per-job stream alike.  A new consumer first receives one synthetic
// event per tracked run — the current model state, so late joiners need
// no separate snapshot call — then the live feed until it disconnects
// or the tracker's bus closes.  The feed is this subscriber's bounded
// bus subscription: a consumer that stops reading drops events rather
// than slowing the sweep.
func StreamEvents(w http.ResponseWriter, r *http.Request, t *Tracker) {
	jsonl := r.URL.Query().Get("format") == "jsonl"
	if jsonl {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	}
	// Commit the response headers before the first event exists:
	// consumers attach to an idle server and block in their read loop,
	// not in the connection handshake.
	flusher, _ := w.(http.Flusher)
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	emit := func(ev obs.Event) bool {
		raw, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if jsonl {
			_, err = fmt.Fprintf(w, "%s\n", raw)
		} else {
			_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, raw)
		}
		if err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	// Subscribe before snapshotting: an event published in between is
	// then duplicated (harmless — consumers key on Seq), never lost.
	sub := t.Bus().Subscribe()
	defer sub.Close()
	for _, rs := range t.Snapshot() {
		ev := obs.Event{
			Time: time.Now(), Type: rs.State, Key: rs.Key, Attempt: rs.Attempt,
			ICount: rs.ICount, Budget: rs.Budget, Rate: rs.Rate,
			ETASeconds: rs.ETASeconds, Err: rs.Err,
		}
		if !emit(ev) {
			return
		}
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-sub.Events():
			if !ok {
				return
			}
			if !emit(ev) {
				return
			}
		}
	}
}

// writeProgressPage renders the progress page: sweep totals, the runs
// table and the completed-runs bandwidth chart.  Pure server-side
// rendering with a meta refresh — no scripts, so it works from curl and
// any browser.
func writeProgressPage(w http.ResponseWriter, o Options) {
	runs := o.Tracker.Snapshot()
	counts := map[string]int{}
	for _, rs := range runs {
		counts[rs.State]++
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<!DOCTYPE html><html><head><meta charset="utf-8"><meta http-equiv="refresh" content="2">`+
		`<title>%s</title><style>
body{font-family:monospace;margin:1.5em;background:#fafafa}
table{border-collapse:collapse}
td,th{border:1px solid #ccc;padding:3px 8px;text-align:left}
th{background:#eee}
%s
</style></head><body>`, html.EscapeString(o.Title), RunsTableStyle)
	fmt.Fprintf(w, `<h1>%s — live sweep progress</h1>`, html.EscapeString(o.Title))
	fmt.Fprintf(w, `<p>%d runs: %d running, %d queued, %d retrying, %d succeeded, %d failed`,
		len(runs), counts[StateRunning], counts[StateQueued], counts[StateRetrying],
		counts[StateSucceeded], counts[StateFailed])
	if win := o.Tracker.StallWindow(); win > 0 {
		fmt.Fprintf(w, ` — stall window %s`, win)
	}
	if d := o.Tracker.Bus().Dropped(); d > 0 {
		fmt.Fprintf(w, ` — %d events dropped by slow consumers`, d)
	}
	fmt.Fprintf(w, `</p><p><a href="/metrics">/metrics</a> · <a href="/events">/events</a> · `+
		`<a href="/events?format=jsonl">/events?format=jsonl</a> · <a href="/debug/pprof/">/debug/pprof/</a></p>`)
	RunsTable(w, runs)
	if o.Chart != nil {
		fmt.Fprintf(w, `<h2>Completed runs</h2><div>%s</div>`, o.Chart())
	}
	fmt.Fprintf(w, `</body></html>`)
}

// RunsTableStyle is the CSS for RunsTable's progress bars and state
// classes; a page embedding the table includes it in its <style>.
const RunsTableStyle = `.bar{background:#ddd;width:120px;height:10px;display:inline-block}
.fill{background:#3a6ea5;height:10px;display:block}
.stalled{color:#b00;font-weight:bold}
.failed{color:#b00}.succeeded{color:#080}.running{color:#06c}`

// RunsTable writes the per-run HTML table — state, attempt, progress
// bar, icount, rate, ETA, stall flag and note — of the -serve progress
// page and the daemon's job page.
func RunsTable(w io.Writer, runs []RunState) {
	fmt.Fprintf(w, `<table><tr><th>run</th><th>state</th><th>attempt</th><th>progress</th><th>icount</th><th>rate</th><th>eta</th><th>note</th></tr>`)
	for _, rs := range runs {
		stateClass := rs.State
		stateText := rs.State
		if rs.Stalled {
			stateClass, stateText = "stalled", "stalled"
		}
		prog, progText := rs.Progress(), ""
		if prog >= 0 {
			progText = fmt.Sprintf(`<span class="bar"><span class="fill" style="width:%d%%"></span></span> %3.0f%%`,
				int(prog*100), prog*100)
		}
		rate, eta := "", ""
		if rs.Rate > 0 && rs.State == StateRunning {
			rate = fmt.Sprintf("%.3g instr/s", rs.Rate)
		}
		if rs.ETASeconds > 0 && rs.State == StateRunning {
			eta = (time.Duration(rs.ETASeconds*1000) * time.Millisecond).Truncate(100 * time.Millisecond).String()
		}
		note := rs.Err
		if rs.Checkpointed && note == "" {
			note = "checkpointed"
		}
		fmt.Fprintf(w, `<tr><td>%s</td><td class="%s">%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>`,
			html.EscapeString(rs.Key), stateClass, stateText,
			attemptText(rs), progText, icountText(rs),
			rate, eta, html.EscapeString(note))
	}
	fmt.Fprintf(w, `</table>`)
}

func attemptText(rs RunState) string {
	if rs.Attempt == 0 {
		return ""
	}
	if rs.Retries > 0 {
		return fmt.Sprintf("%d (%d retries)", rs.Attempt, rs.Retries)
	}
	return fmt.Sprintf("%d", rs.Attempt)
}

func icountText(rs RunState) string {
	if rs.ICount == 0 {
		return ""
	}
	if rs.Budget > 0 {
		return fmt.Sprintf("%d / %d", rs.ICount, rs.Budget)
	}
	return fmt.Sprintf("%d", rs.ICount)
}
