// End-to-end tests of the observability layer: one observed tQUAD run
// must produce a journal whose per-stage instruction and byte totals
// reconcile exactly with the run's final profile and with the machine's
// own overhead counter, and every renderer must be byte-deterministic
// across repeated renders of the same profile.
package repro_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"tquad/internal/obs"
	"tquad/internal/study"
	"tquad/internal/wfs"
)

// TestObservabilityReconciliation runs the small workload once, live,
// under an observer and cross-checks every layer's numbers against each
// other.
func TestObservabilityReconciliation(t *testing.T) {
	o := obs.NewObserver()
	s, err := study.NewObserved(wfs.Small(), o)
	if err != nil {
		t.Fatalf("study: %v", err)
	}
	sch := study.NewScheduler(s, 1)
	defer sch.Close()
	sch.SetReplay(false)
	res, err := sch.Run(study.RunConfig{Kind: study.RunTQUAD, SliceInterval: 100_000, IncludeStack: true})
	if err != nil {
		t.Fatalf("tquad: %v", err)
	}
	if errs := sch.Flush(); len(errs) != 0 {
		t.Fatalf("flush: %v", errs)
	}
	prof := res.Temporal

	// The journal round-trips and its execute span reconciles with the
	// final profile.
	var buf bytes.Buffer
	if err := obs.WriteJournal(&buf, o.Spans, o.Metrics); err != nil {
		t.Fatalf("journal: %v", err)
	}
	lines, err := obs.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("journal read-back: %v", err)
	}
	var exec, snapshot *obs.SpanRecord
	for _, ln := range lines {
		if ln.Type != "span" {
			continue
		}
		switch ln.Span.Name {
		case "execute":
			exec = ln.Span
		case "snapshot":
			snapshot = ln.Span
		}
	}
	if exec == nil || snapshot == nil {
		t.Fatalf("journal missing execute/snapshot spans:\n%s", buf.String())
	}
	if exec.Instr != prof.TotalInstr {
		t.Errorf("execute span instr = %d, profile TotalInstr = %d", exec.Instr, prof.TotalInstr)
	}
	if snapshot.Instr != prof.TotalInstr {
		t.Errorf("snapshot span instr = %d, profile TotalInstr = %d", snapshot.Instr, prof.TotalInstr)
	}

	// The execute span's byte total is the VM's own memory accounting.
	rb := o.Metrics.Counter("tquad_vm_mem_read_bytes_total").Value()
	wb := o.Metrics.Counter("tquad_vm_mem_write_bytes_total").Value()
	if exec.Bytes != rb+wb {
		t.Errorf("execute span bytes = %d, vm counters say %d", exec.Bytes, rb+wb)
	}
	if got := o.Metrics.Counter("tquad_vm_instructions_total").Value(); got != prof.TotalInstr {
		t.Errorf("vm instruction counter = %d, profile TotalInstr = %d", got, prof.TotalInstr)
	}

	// Overhead reconciliation (the Table III analogue): the sum of the
	// tool's per-component costs equals the machine's overhead counter,
	// which the VM also published.
	var coreOverhead uint64
	for _, comp := range []string{"trace", "skip", "prefetch", "snapshot"} {
		coreOverhead += o.Metrics.Counter(
			obs.Label("tquad_core_overhead_instr_total", "component", comp)).Value()
	}
	if coreOverhead != res.Overhead {
		t.Errorf("core overhead components sum to %d, machine charged %d", coreOverhead, res.Overhead)
	}
	if got := o.Metrics.Counter("tquad_vm_overhead_instr_total").Value(); got != res.Overhead {
		t.Errorf("vm overhead counter = %d, machine charged %d", got, res.Overhead)
	}

	// The per-size memory-op counters sum to the byte totals.
	var bySize uint64
	for i, size := range vmSizeClasses() {
		reads := o.Metrics.Counter(obs.Label("tquad_vm_mem_reads_total", "size", size)).Value()
		writes := o.Metrics.Counter(obs.Label("tquad_vm_mem_writes_total", "size", size)).Value()
		bySize += (reads + writes) << i
	}
	if bySize != rb+wb {
		t.Errorf("per-size op counters imply %d bytes, byte counters say %d", bySize, rb+wb)
	}

	// Prometheus export is non-empty and byte-stable.
	var p1, p2 bytes.Buffer
	if err := o.Metrics.WritePrometheus(&p1); err != nil {
		t.Fatalf("prometheus: %v", err)
	}
	if err := o.Metrics.WritePrometheus(&p2); err != nil {
		t.Fatalf("prometheus: %v", err)
	}
	if p1.Len() == 0 || !bytes.Equal(p1.Bytes(), p2.Bytes()) {
		t.Error("prometheus export empty or unstable")
	}

	// The chrome trace parses and its events are monotonically ordered.
	var tr bytes.Buffer
	if err := o.Spans.WriteChromeTrace(&tr); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
			TS    int64  `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tr.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	lastTS := int64(-1)
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "M" {
			continue
		}
		if ev.TS < lastTS {
			t.Fatalf("trace timestamps not monotonic: %d after %d", ev.TS, lastTS)
		}
		lastTS = ev.TS
	}
}

// vmSizeClasses mirrors vm.MemSizeClasses as label strings.
func vmSizeClasses() []string { return []string{"1", "2", "4", "8", "16"} }

// TestRenderDeterminism renders every major textual output twice from the
// same profile; any map-iteration dependence would flip the bytes.
func TestRenderDeterminism(t *testing.T) {
	s, _ := getStudy(t)
	prof := runShared(t, study.RunConfig{Kind: study.RunTQUAD, SliceInterval: 100_000, IncludeStack: true}).Temporal
	flat := runShared(t, study.RunConfig{Kind: study.RunFlat}).Flat
	phases := s.PhasesFromProfile(prof)
	render := func() string {
		return study.RenderTableI(flat) +
			study.RenderFigure("fig", prof, wfs.TopTenKernels(), true, true, 64) +
			study.RenderTableIV(phases, prof.NumSlices)
	}
	first := render()
	for i := 0; i < 5; i++ {
		if got := render(); got != first {
			t.Fatal("rendered output varies across identical renders")
		}
	}
}
