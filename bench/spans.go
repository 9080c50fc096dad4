package bench

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer's public API, recorded from the
// benchmark's side of the call.  Spans of one operation share Req;
// Parent is the ID of the enclosing span (0 at the root).  Times are
// nanoseconds since the tracer started.
type Span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends.  A nil *Tracer
// records nothing, which is how untraced operations run.  Safe for
// concurrent use.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty tracer.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its ID (0 on a nil tracer).
func (t *Tracer) Begin(req, parent int64, name, layer string) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Layer: layer, StartNS: now})
	return id
}

// End closes the span Begin returned.
func (t *Tracer) End(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// Do runs f inside a span.
func (t *Tracer) Do(req, parent int64, name, layer string, f func()) {
	id := t.Begin(req, parent, name, layer)
	f()
	t.End(id)
}

// Spans returns a copy of the recorded spans in start order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSONL writes one span per line.
func WriteJSONL(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes sums each layer's self time in seconds: a span's duration
// minus the part of it its child spans cover.
func SelfTimes(spans []Span) map[string]float64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		covered := coverage(children[s.ID], s.StartNS, s.EndNS)
		out[s.Layer] += float64(s.EndNS-s.StartNS-covered) / 1e9
	}
	return out
}

// coverage returns how many nanoseconds of [lo, hi) the spans cover,
// counting overlapping spans once.
func coverage(spans []Span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	var total int64
	cur := lo
	for _, s := range spans {
		start, end := max(s.StartNS, cur), min(s.EndNS, hi)
		if end > start {
			total += end - start
			cur = end
		}
	}
	return total
}
