package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryMergeCountersGaugesHistograms(t *testing.T) {
	dst := NewRegistry()
	dst.Counter("c").Add(5)
	dst.Gauge("g").Set(1)
	dst.Histogram("h", []float64{10, 100}).Observe(3)

	src := NewRegistry()
	src.Counter("c").Add(7)
	src.Counter("only_src").Add(2)
	src.Gauge("g").Set(9)
	h := src.Histogram("h", []float64{10, 100})
	h.Observe(50)
	h.Observe(1000)

	dst.Merge(src)

	if got := dst.Counter("c").Value(); got != 12 {
		t.Errorf("merged counter = %d, want 12", got)
	}
	if got := dst.Counter("only_src").Value(); got != 2 {
		t.Errorf("new counter = %d, want 2", got)
	}
	if got := dst.Gauge("g").Value(); got != 9 {
		t.Errorf("merged gauge = %f, want 9 (last merge wins)", got)
	}
	mh := dst.Histogram("h", nil)
	if mh.Count() != 3 {
		t.Errorf("merged histogram count = %d, want 3", mh.Count())
	}
	if mh.Sum() != 3+50+1000 {
		t.Errorf("merged histogram sum = %f, want %f", mh.Sum(), float64(3+50+1000))
	}
	b := mh.Buckets()
	// cumulative: <=10 has {3}, <=100 adds {50}, +Inf adds {1000}.
	if b[0].Count != 1 || b[1].Count != 2 || b[2].Count != 3 {
		t.Errorf("merged buckets = %+v", b)
	}
}

func TestRegistryMergeNilSafe(t *testing.T) {
	var nilReg *Registry
	nilReg.Merge(NewRegistry()) // must not panic
	r := NewRegistry()
	r.Counter("c").Add(1)
	r.Merge(nil)
	if r.Counter("c").Value() != 1 {
		t.Error("merge with nil source altered registry")
	}
}

func TestRegistryMergeDeterministicOrder(t *testing.T) {
	// Two merges of the same sources in the same order must render the
	// same Prometheus text, whatever map iteration does internally.
	build := func() string {
		dst := NewRegistry()
		for _, run := range []string{"a", "b", "c"} {
			src := NewRegistry()
			src.Counter("calls_total").Add(uint64(len(run)))
			src.Gauge("last_interval").Set(float64(len(run)))
			src.Histogram("bytes", []float64{1, 2}).Observe(float64(len(run)))
			dst.Merge(src)
		}
		var sb strings.Builder
		if err := dst.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if a, b := build(), build(); a != b {
		t.Errorf("merge output nondeterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestRegistryMergeConcurrent(t *testing.T) {
	// Many goroutines merging into one registry must be race-free and
	// lose no counter increments.
	dst := NewRegistry()
	var wg sync.WaitGroup
	const n = 16
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := NewRegistry()
			src.Counter("c").Add(3)
			src.Histogram("h", []float64{5}).Observe(1)
			dst.Merge(src)
		}()
	}
	wg.Wait()
	if got := dst.Counter("c").Value(); got != 3*n {
		t.Errorf("concurrent merge lost counts: %d, want %d", got, 3*n)
	}
	if got := dst.Histogram("h", nil).Count(); got != n {
		t.Errorf("concurrent merge lost samples: %d, want %d", got, n)
	}
}

func TestTracerAdoptPreservesStructure(t *testing.T) {
	clock := time.Unix(0, 0)
	tick := func() time.Time { clock = clock.Add(time.Millisecond); return clock }

	child := NewTracerWithClock(tick)
	outer := child.Start("run")
	inner := child.Start("execute")
	inner.SetInstr(42)
	inner.End()
	outer.End()

	parent := NewTracerWithClock(tick)
	top := parent.Start("sweep")
	parent.Adopt("tquad/slice=100", child)
	top.End()

	recs := parent.Records()
	if len(recs) != 4 { // sweep, synthetic root, run, execute
		t.Fatalf("adopted record count = %d, want 4", len(recs))
	}
	root := recs[1]
	if root.Name != "tquad/slice=100" || root.Parent != 0 || root.Depth != 1 {
		t.Errorf("synthetic root = %+v", root)
	}
	run := recs[2]
	if run.Name != "run" || run.Parent != 1 || run.Depth != 2 {
		t.Errorf("adopted run span = %+v", run)
	}
	exec := recs[3]
	if exec.Name != "execute" || exec.Parent != 2 || exec.Depth != 3 || exec.Instr != 42 {
		t.Errorf("adopted execute span = %+v", exec)
	}
	if exec.Start < run.Start || exec.Start+exec.Dur > root.Start+root.Dur {
		t.Errorf("adopted spans not nested in time: root=%+v exec=%+v", root, exec)
	}
}

// TestTracerAdoptPlacesRunsWhereTheyRan: an adopted run sits on the
// target's timeline where it ran, not where it was merged, with its
// spans' timing intact, and a run that began before the target's origin
// starts at 0.
func TestTracerAdoptPlacesRunsWhereTheyRan(t *testing.T) {
	var clock time.Time
	at := func(ms int) { clock = time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	now := func() time.Time { return clock }
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }

	at(0)
	early := NewTracerWithClock(now)
	at(2)
	warm := early.Start("warmup")
	at(10)
	parent := NewTracerWithClock(now)
	at(14)
	warm.End()
	at(30)
	child := NewTracerWithClock(now)
	at(40)
	run := child.Start("run")
	at(45)
	exec := child.Start("execute")
	at(70)
	exec.End()
	run.End()

	at(500) // the merge, long after both runs ended
	parent.Adopt("tquad/slice=100", child)
	parent.Adopt("record/x", early)
	report := parent.Start("report")
	at(510)
	report.End()

	recs := parent.Records()
	if len(recs) != 6 {
		t.Fatalf("record count = %d, want 6", len(recs))
	}
	for i, want := range []struct {
		name       string
		start, dur time.Duration
	}{
		{"tquad/slice=100", ms(30), ms(30)},
		{"run", ms(30), ms(30)},
		{"execute", ms(35), ms(25)},
		{"record/x", 0, ms(12)},
		{"warmup", 0, ms(12)},
		{"report", ms(490), ms(10)},
	} {
		if r := recs[i]; r.Name != want.name || r.Start != want.start || r.Dur != want.dur {
			t.Errorf("record %d = %s at %v for %v, want %s at %v for %v",
				i, r.Name, r.Start, r.Dur, want.name, want.start, want.dur)
		}
	}
}

func TestTracerAdoptNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Adopt("x", nil) // must not panic
}
