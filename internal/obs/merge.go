// Merging per-run observability into a session-wide view.  The parallel
// experiment scheduler (internal/study) gives every run its own Registry
// and Tracer so concurrent runs never contend on shared metrics; when the
// sweep drains, the per-run state is folded into the study's observer in
// a fixed (config-key-sorted) order so the merged output is deterministic
// regardless of run completion order.
package obs

import (
	"math"
	"sort"
	"time"
)

// Merge folds src's metrics into r: counters and histogram buckets add,
// gauges take src's value (last merge wins — merge sources in a fixed
// order for deterministic output).  Histograms merge bucket-by-bucket
// when the bucket bounds agree, which they do for every metric family in
// this codebase (bounds are package-level constants); a histogram whose
// bounds differ from an already-registered one of the same name is
// skipped.  A nil receiver or source is a no-op.  Safe for concurrent
// use, though src should be quiescent for the merge to be a snapshot.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	type histSnap struct {
		bounds []float64
		counts []uint64
		sum    float64
		count  uint64
	}
	// Snapshot src under its own lock, then apply with src released, so
	// the two registries' locks are never held together.
	src.mu.Lock()
	counters := make(map[string]uint64, len(src.counters))
	for name, c := range src.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]float64, len(src.gauges))
	for name, g := range src.gauges {
		gauges[name] = g.Value()
	}
	hists := make(map[string]histSnap, len(src.histograms))
	for name, h := range src.histograms {
		counts := make([]uint64, len(h.counts))
		for i := range h.counts {
			counts[i] = h.counts[i].Load()
		}
		hists[name] = histSnap{bounds: h.bounds, counts: counts, sum: h.Sum(), count: h.Count()}
	}
	src.mu.Unlock()

	for _, name := range sortedKeys(counters) {
		r.Counter(name).Add(counters[name])
	}
	for _, name := range sortedKeys(gauges) {
		r.Gauge(name).Set(gauges[name])
	}
	for _, name := range sortedKeys(hists) {
		hs := hists[name]
		h := r.Histogram(name, hs.bounds)
		if len(h.counts) != len(hs.counts) {
			continue // incompatible pre-existing bounds
		}
		for i, n := range hs.counts {
			h.counts[i].Add(n)
		}
		h.count.Add(hs.count)
		h.addSum(hs.sum)
	}
}

// addSum atomically adds v to the histogram's sample sum without
// recording a sample (used by Merge, which carries counts separately).
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Adopt grafts src's span records into t as the children of a new
// synthetic root span named name.  The records keep their nesting and
// their timing relative to one another.  The root starts where src's
// first span started, placed on t's timeline through the two tracers'
// origins, and never before t's origin.  Used to fold per-run tracers
// from parallel experiment runs into the study-wide timeline.  A nil
// tracer or source is a no-op.
func (t *Tracer) Adopt(name string, src *Tracer) {
	if t == nil || src == nil {
		return
	}
	recs := src.Records()
	t.mu.Lock()
	defer t.mu.Unlock()
	// Records are in start order: the first starts the subtree.
	var first time.Duration
	if len(recs) > 0 {
		first = recs[0].Start
	}
	base := max(src.t0.Sub(t.t0)+first, 0)
	var rootDur time.Duration
	for _, r := range recs {
		if end := r.Start + r.Dur - first; end > rootDur {
			rootDur = end
		}
	}
	rootIdx := len(t.spans)
	root := &Span{tr: t, name: name, idx: rootIdx, parent: -1, start: base, dur: rootDur, done: true}
	if n := len(t.open); n > 0 {
		root.parent = t.open[n-1].idx
		root.depth = t.open[n-1].depth + 1
	}
	t.spans = append(t.spans, root)
	// Records are in start order, so a record's parent always precedes
	// it and its new index is a fixed offset from the old one.
	for _, r := range recs {
		parent := rootIdx
		if r.Parent >= 0 {
			parent = rootIdx + 1 + r.Parent
		}
		t.spans = append(t.spans, &Span{
			tr:     t,
			name:   r.Name,
			idx:    len(t.spans),
			parent: parent,
			depth:  root.depth + 1 + r.Depth,
			start:  base + r.Start - first,
			dur:    r.Dur,
			done:   true,
			instr:  r.Instr,
			bytes:  r.Bytes,
		})
	}
}
