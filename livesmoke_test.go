// Live-monitoring smoke test: boots the whole -serve stack in-process —
// metrics registry, run tracker, embedded HTTP server — exactly the way
// the CLIs wire it, runs a small sweep against it, and checks every
// operator-facing surface end to end: /metrics scrapes, /events streams
// at least one lifecycle event while the sweep runs, and the progress
// page renders the completed run with its bandwidth chart.
package repro_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"tquad/internal/obs"
	"tquad/internal/obs/live"
	"tquad/internal/study"
	"tquad/internal/wfs"
)

func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestLiveMonitoringSmoke(t *testing.T) {
	o := obs.NewObserver()
	tracker := live.NewTracker(live.TrackerOptions{
		Registry:    o.Registry(),
		StallWindow: time.Second,
	})
	defer tracker.Close()
	chart := live.NewChartData("effective bandwidth of completed runs", "B/instr")
	progress, err := live.Progress(live.Options{
		Tracker: tracker,
		Chart:   chart.SVG,
		Title:   "smoke",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := live.Serve("127.0.0.1:0", o.Registry(), progress)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Attach the event stream before the sweep starts so the line read
	// below is a live event, streamed while the run is in flight.
	stream, err := http.Get(srv.URL() + "/events?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stream.Body)
		if sc.Scan() {
			lines <- sc.Text()
		}
	}()

	s, err := study.NewObserved(wfs.Small(), o)
	if err != nil {
		t.Fatal(err)
	}
	sch := study.NewScheduler(s, 2)
	defer sch.Close()
	sch.SetEvents(tracker)
	cfg := study.RunConfig{Kind: study.RunTQUAD, SliceInterval: 400_000, IncludeStack: true}
	res, err := sch.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chart.Add(res.Key, study.EffectiveBandwidth(res.Temporal))

	select {
	case line := <-lines:
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event stream line %q: %v", line, err)
		}
		if ev.Type == "" || ev.Key == "" {
			t.Errorf("streamed event missing type or key: %q", line)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event streamed within 5s of a completed run")
	}

	metrics := httpGetBody(t, srv.URL()+"/metrics")
	for _, name := range []string{live.MetricLiveEvents, live.MetricLiveHeartbeats} {
		if !strings.Contains(metrics, name) {
			t.Errorf("/metrics is missing %s:\n%s", name, metrics)
		}
	}

	page := httpGetBody(t, srv.URL()+"/")
	if !strings.Contains(page, cfg.Key()) {
		t.Errorf("progress page does not list the completed run %q", cfg.Key())
	}
	if !strings.Contains(page, "<svg") {
		t.Error("progress page has no bandwidth chart despite a completed run")
	}
}
