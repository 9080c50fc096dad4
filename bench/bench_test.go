package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"tquad/internal/wfs"
)

// TestWorkloadsSmoke runs every workload at a tiny scale — the small
// guest, no time budget, so three operations — and checks that each
// passes its own output checks and reports exactly the end-to-end
// metrics.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := Run(Options{Workload: w.Name, Seed: 3, Guest: wfs.Small()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
				t.Fatalf("attempted %d, failed %d, correct %v", res.Attempted, res.Failed, res.Correct)
			}
			checkMetrics(t, res.Metrics, EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
			if res.Digest == "" {
				t.Error("no simulated-output digest")
			}
		})
	}
}

// TestTracedRunSmoke runs the traced variant of one workload at a tiny
// scale: every per-layer metric, spans.jsonl and cpu.pprof.
func TestTracedRunSmoke(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(Options{Workload: "live-profile", Seed: 3, Guest: wfs.Small(), Trace: true, TraceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
	}
	checkMetrics(t, res.Metrics, PerLayer)
	if res.Metrics["vm.instr"].Value == 0 || res.Metrics["vm.cpu_share"].Value == 0 {
		t.Errorf("traced run measured nothing: %+v", res.Metrics)
	}
	for _, f := range []string{"spans.jsonl", "cpu.pprof"} {
		if fi, err := os.Stat(filepath.Join(dir, "live-profile-seed3", f)); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty: %v", f, err)
		}
	}
}

// TestSimulatedOutputsRepeat runs one workload twice with one seed: the
// digests of the simulated outputs must match, and another seed's, whose
// input signal differs, must not.
func TestSimulatedOutputsRepeat(t *testing.T) {
	digest := func(seed uint64) string {
		res, err := Run(Options{Workload: "live-profile", Seed: seed, Guest: wfs.Small()})
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest
	}
	a, b, c := digest(5), digest(5), digest(6)
	if a != b {
		t.Errorf("seed 5 gave digests %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 5 and 6 gave the same digest %s", a)
	}
}

func checkMetrics(t *testing.T, got map[string]Metric, defs []MetricDef) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("reported %d metrics, defined %d", len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("metric %s not reported", d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json in
// step with the workloads and metrics this package defines.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []Bound `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	for _, w := range Workloads {
		want = append(want, w.Name+": "+w.Why)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads\n%q\nwant\n%q", names, want)
	}
	var e2e []MetricDef
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, MetricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, EndToEnd) {
		t.Errorf("end_to_end %v, want %v", e2e, EndToEnd)
	}
	var per []MetricDef
	for _, m := range doc.PerLayer {
		per = append(per, MetricDef{m.Name, m.Unit, m.Better})
	}
	sortDefs := func(d []MetricDef) { sort.Slice(d, func(i, j int) bool { return d[i].Name < d[j].Name }) }
	wantPer := append([]MetricDef(nil), PerLayer...)
	sortDefs(per)
	sortDefs(wantPer)
	if !reflect.DeepEqual(per, wantPer) {
		t.Errorf("per_layer %v, want %v", per, wantPer)
	}
}
