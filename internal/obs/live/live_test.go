package live

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"tquad/internal/obs"
)

func TestTrackerLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewTracker(TrackerOptions{Registry: reg})
	defer tr.Close()

	t0 := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	tr.Publish(obs.Event{Type: obs.EventQueued, Key: "tquad/a", Time: t0})
	tr.Publish(obs.Event{Type: obs.EventStarted, Key: "tquad/a", Attempt: 1, Time: t0})
	tr.Publish(obs.Event{Type: obs.EventHeartbeat, Key: "tquad/a",
		ICount: 500, Budget: 1000, Time: t0.Add(time.Second)})

	snap := tr.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d runs, want 1", len(snap))
	}
	r := snap[0]
	if r.State != StateRunning || r.Attempt != 1 {
		t.Fatalf("state = %+v", r)
	}
	if r.Rate != 500 {
		t.Errorf("rate = %v, want 500 instr/s", r.Rate)
	}
	if r.ETASeconds != 1 {
		t.Errorf("eta = %v, want 1s (500 left at 500/s)", r.ETASeconds)
	}
	if p := r.Progress(); p != 0.5 {
		t.Errorf("progress = %v, want 0.5", p)
	}

	tr.Publish(obs.Event{Type: obs.EventSucceeded, Key: "tquad/a", ICount: 900, Time: t0.Add(2 * time.Second)})
	r = tr.Snapshot()[0]
	if r.State != StateSucceeded {
		t.Fatalf("state = %q, want succeeded", r.State)
	}
	if p := r.Progress(); p != 1 {
		t.Errorf("final progress = %v, want 1", p)
	}
	if got := reg.Counter(MetricLiveHeartbeats).Value(); got != 1 {
		t.Errorf("heartbeat counter = %d, want 1", got)
	}
	if got := reg.Counter(MetricLiveEvents).Value(); got != 4 {
		t.Errorf("event counter = %d, want 4", got)
	}
	if got := reg.Gauge(obs.Label(MetricLiveRuns, "state", StateSucceeded)).Value(); got != 1 {
		t.Errorf("succeeded gauge = %v, want 1", got)
	}
}

func TestTrackerHeartbeatEnrichment(t *testing.T) {
	tr := NewTracker(TrackerOptions{})
	defer tr.Close()
	sub := tr.Bus().Subscribe()
	defer sub.Close()

	t0 := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	tr.Publish(obs.Event{Type: obs.EventStarted, Key: "k", Attempt: 1, Time: t0})
	tr.Publish(obs.Event{Type: obs.EventHeartbeat, Key: "k", ICount: 2000, Budget: 6000, Time: t0.Add(time.Second)})

	<-sub.Events() // started
	hb := <-sub.Events()
	if hb.Type != obs.EventHeartbeat {
		t.Fatalf("second event = %+v", hb)
	}
	if hb.Rate != 2000 {
		t.Errorf("enriched rate = %v, want 2000", hb.Rate)
	}
	if hb.ETASeconds != 2 {
		t.Errorf("enriched eta = %v, want 2 (4000 left at 2000/s)", hb.ETASeconds)
	}
}

func TestTrackerRetryAndFailure(t *testing.T) {
	tr := NewTracker(TrackerOptions{})
	defer tr.Close()
	tr.Publish(obs.Event{Type: obs.EventStarted, Key: "k", Attempt: 1})
	tr.Publish(obs.Event{Type: obs.EventRetry, Key: "k", Attempt: 1, Err: "boom"})
	tr.Publish(obs.Event{Type: obs.EventStarted, Key: "k", Attempt: 2})
	tr.Publish(obs.Event{Type: obs.EventFailed, Key: "k", Err: "gave up"})
	r := tr.Snapshot()[0]
	if r.State != StateFailed || r.Retries != 1 || r.Err != "gave up" || r.Attempt != 2 {
		t.Fatalf("state = %+v", r)
	}
}

// TestTrackerStallDetector is the model-level stall contract: a started
// run with no heartbeats gets flagged — metric incremented, stalled
// event published — within a few windows, and a later heartbeat clears
// the flag.
func TestTrackerStallDetector(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewTracker(TrackerOptions{Registry: reg, StallWindow: 50 * time.Millisecond})
	defer tr.Close()
	sub := tr.Bus().Subscribe()
	defer sub.Close()

	tr.Publish(obs.Event{Type: obs.EventStarted, Key: "hung", Attempt: 1})
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-sub.Events():
			if ev.Type != obs.EventStalled {
				continue
			}
			if ev.Key != "hung" {
				t.Fatalf("stalled event for %q, want hung", ev.Key)
			}
			if got := reg.Counter(obs.MetricSchedStalled).Value(); got != 1 {
				t.Fatalf("stall counter = %d, want 1", got)
			}
			if !tr.Snapshot()[0].Stalled {
				t.Fatal("snapshot does not show the stall")
			}
			// A heartbeat revives the run.
			tr.Publish(obs.Event{Type: obs.EventHeartbeat, Key: "hung", ICount: 1})
			if tr.Snapshot()[0].Stalled {
				t.Fatal("heartbeat did not clear the stall flag")
			}
			return
		case <-deadline:
			t.Fatal("no stalled event within 5s at a 50ms window")
		}
	}
}

func TestTrackerStallIgnoresFinishedRuns(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewTracker(TrackerOptions{Registry: reg, StallWindow: 20 * time.Millisecond})
	defer tr.Close()
	tr.Publish(obs.Event{Type: obs.EventStarted, Key: "done", Attempt: 1})
	tr.Publish(obs.Event{Type: obs.EventSucceeded, Key: "done"})
	time.Sleep(120 * time.Millisecond)
	if got := reg.Counter(obs.MetricSchedStalled).Value(); got != 0 {
		t.Fatalf("completed run flagged stalled %d times", got)
	}
}

// startServer brings up a progress server on an ephemeral port, with
// reg at /metrics.
func startServer(t *testing.T, reg *obs.Registry, o Options) *Server {
	t.Helper()
	if o.Tracker == nil {
		o.Tracker = NewTracker(TrackerOptions{})
		t.Cleanup(o.Tracker.Close)
	}
	h, err := Progress(o)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Serve("127.0.0.1:0", reg, h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("tquad_test_total").Add(7)
	s := startServer(t, reg, Options{})

	code, body := get(t, s.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "tquad_test_total 7") {
		t.Fatalf("metrics output missing counter:\n%s", body)
	}
}

func TestServerMetricsConcurrentWithWrites(t *testing.T) {
	reg := obs.NewRegistry()
	s := startServer(t, reg, Options{})
	stop := make(chan struct{})
	go func() {
		c := reg.Counter("tquad_busy_total")
		for {
			select {
			case <-stop:
				return
			default:
				c.Inc()
				reg.Gauge("tquad_busy").Set(1)
			}
		}
	}()
	defer close(stop)
	for i := 0; i < 20; i++ {
		if code, _ := get(t, s.URL()+"/metrics"); code != http.StatusOK {
			t.Fatalf("scrape %d: status %d", i, code)
		}
	}
}

func TestServerIndexPage(t *testing.T) {
	tr := NewTracker(TrackerOptions{StallWindow: time.Minute})
	defer tr.Close()
	chart := NewChartData("bandwidth", "bytes/kinstr")
	chart.Add("tquad/slice=1000", 42.5)
	s := startServer(t, nil, Options{
		Tracker: tr, Title: "tquad <sweep>",
		Chart: chart.SVG,
	})
	tr.Publish(obs.Event{Type: obs.EventStarted, Key: "tquad/slice=1000", Attempt: 1})
	tr.Publish(obs.Event{Type: obs.EventHeartbeat, Key: "tquad/slice=1000", ICount: 10, Budget: 100})

	code, body := get(t, s.URL()+"/")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		"tquad &lt;sweep&gt;", // title escaped
		"tquad/slice=1000",    // run row
		"running",
		"stall window 1m0s",
		"<svg", // chart embedded
		"bytes/kinstr",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("index page missing %q", want)
		}
	}
	if code, _ := get(t, s.URL()+"/nosuch"); code != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", code)
	}
}

func TestServerPprofEndpoint(t *testing.T) {
	s := startServer(t, nil, Options{})
	code, body := get(t, s.URL()+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: status %d body %.80q", code, body)
	}
}

// readEvents connects to /events and decodes streamed events until
// want events have arrived or the context ends.
func readEvents(t *testing.T, ctx context.Context, url string, want int) []obs.Event {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []obs.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		line = strings.TrimPrefix(line, "data: ")
		if line == "" || strings.HasPrefix(line, "event: ") {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		out = append(out, ev)
		if len(out) >= want {
			return out
		}
	}
	return out
}

func TestServerEventStreamSSE(t *testing.T) {
	tr := NewTracker(TrackerOptions{})
	defer tr.Close()
	s := startServer(t, nil, Options{Tracker: tr})

	// One pre-connection event (arrives as the snapshot replay) and one
	// live event after the consumer connects.
	tr.Publish(obs.Event{Type: obs.EventQueued, Key: "before"})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan []obs.Event, 1)
	go func() { done <- readEvents(t, ctx, s.URL()+"/events", 2) }()
	time.Sleep(50 * time.Millisecond) // let the consumer subscribe
	tr.Publish(obs.Event{Type: obs.EventStarted, Key: "after", Attempt: 1})

	evs := <-done
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Key != "before" {
		t.Errorf("snapshot event = %+v", evs[0])
	}
	if evs[1].Key != "after" || evs[1].Type != obs.EventStarted {
		t.Errorf("live event = %+v", evs[1])
	}
}

func TestServerEventStreamJSONL(t *testing.T) {
	tr := NewTracker(TrackerOptions{})
	defer tr.Close()
	s := startServer(t, nil, Options{Tracker: tr})
	tr.Publish(obs.Event{Type: obs.EventSucceeded, Key: "k", ICount: 9})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	evs := readEvents(t, ctx, s.URL()+"/events?format=jsonl", 1)
	if len(evs) != 1 || evs[0].Key != "k" || evs[0].Type != StateSucceeded {
		t.Fatalf("jsonl events = %+v", evs)
	}
}

// TestServeRequiresTracker: the progress page cannot be served without
// a tracker to read.
func TestServeRequiresTracker(t *testing.T) {
	if _, err := Progress(Options{}); err == nil {
		t.Fatal("Progress accepted a nil tracker")
	}
}

// TestBindEphemeralReportsUsableURL is the ":0" regression test: an
// ephemeral bind must report the kernel-assigned port with a dialable
// (loopback, not wildcard) host, and the reported URL must actually
// serve.
func TestBindEphemeralReportsUsableURL(t *testing.T) {
	s, err := Serve(":0", nil, http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	url := s.URL()
	if strings.Contains(url, ":0/") || strings.HasSuffix(url, ":0") {
		t.Fatalf("URL %q still reports the unbound :0 port", url)
	}
	if !strings.HasPrefix(url, "http://127.0.0.1:") {
		t.Fatalf("URL %q does not rewrite the wildcard host to loopback", url)
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("reported URL not dialable: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/metrics = %d", url, resp.StatusCode)
	}
}

func TestListenURLKeepsExplicitHost(t *testing.T) {
	s, err := Serve("127.0.0.1:0", nil, http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if url := s.URL(); !strings.HasPrefix(url, "http://127.0.0.1:") {
		t.Fatalf("URL = %q", url)
	}
}

// TestServeRoutesAndHardening: the caller's handler receives every path
// the server does not own, and the server bounds header reads without
// bounding writes (the event streams are long-lived).
func TestServeRoutesAndHardening(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("tquad_test_total").Inc()
	s, err := Serve("127.0.0.1:0", reg, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "caller "+r.URL.Path)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for path, want := range map[string]string{
		"/":                    "caller /",
		"/api/x":               "caller /api/x",
		"/metrics":             "tquad_test_total 1",
		"/debug/pprof/":        "goroutine",
		"/debug/pprof/cmdline": "",
	} {
		code, body := get(t, s.URL()+path)
		if code != http.StatusOK || !strings.Contains(body, want) {
			t.Errorf("GET %s: status %d, body %.80q, want %q", path, code, body, want)
		}
	}
	if s.srv.ReadHeaderTimeout <= 0 {
		t.Error("no ReadHeaderTimeout: slow clients can hold connections open")
	}
	if s.srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout %v would cut off event streams", s.srv.WriteTimeout)
	}
}
