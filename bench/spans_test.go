package bench

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Layer: "bench", StartNS: 0, EndNS: 100e6},
		{ID: 2, Parent: 1, Layer: "study", StartNS: 10e6, EndNS: 60e6},
		// Overlaps its sibling: the covered part counts once.
		{ID: 3, Parent: 1, Layer: "study", StartNS: 50e6, EndNS: 70e6},
		{ID: 4, Parent: 2, Layer: "phase", StartNS: 20e6, EndNS: 30e6},
	}
	self := SelfTimes(spans)
	want := map[string]float64{"bench": 0.040, "study": 0.060, "phase": 0.010}
	for l, w := range want {
		if d := self[l] - w; d > 1e-12 || d < -1e-12 {
			t.Errorf("self time of %s = %v, want %v", l, self[l], w)
		}
	}
}

func TestTracerWritesSpans(t *testing.T) {
	var nilTracer *Tracer
	if id := nilTracer.Begin(1, 0, "x", "vm"); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	nilTracer.End(0)

	tr := NewTracer()
	root := tr.Begin(7, 0, "op", "bench")
	tr.Do(7, root, "call", "vm", func() {})
	tr.End(root)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := WriteJSONL(path, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []Span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Req != 7 || got[1].Layer != "vm" {
		t.Fatalf("spans read back as %+v", got)
	}
	if got[0].EndNS < got[1].EndNS || got[1].StartNS < got[0].StartNS {
		t.Fatalf("child span outside its parent: %+v", got)
	}
}
