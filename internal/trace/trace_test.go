package trace_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"tquad/internal/core"
	"tquad/internal/flatprof"
	"tquad/internal/phase"
	"tquad/internal/quad"
	"tquad/internal/trace"
)

func sampleProfile() *core.Profile {
	return &core.Profile{
		SliceInterval: 5000,
		NumSlices:     10,
		TotalInstr:    50000,
		IncludeStack:  true,
		Kernels: []*core.KernelProfile{
			{
				Name: "k1", FirstSlice: 2, LastSlice: 7, ActivitySpan: 3,
				Points: []core.SlicePoint{
					{Slice: 2, ReadIncl: 100, ReadExcl: 80, WriteIncl: 50, WriteExcl: 40, Instr: 2000},
					{Slice: 5, ReadIncl: 10, Instr: 100},
					{Slice: 7, WriteIncl: 30, WriteExcl: 30, Instr: 900},
				},
				TotalReadIncl: 110, TotalReadExcl: 80, TotalWriteIncl: 80, TotalWriteExcl: 70,
			},
		},
	}
}

// decode reads one saved document back with encoding/json alone, as an
// external tool would.
func decode(t *testing.T, buf *bytes.Buffer, kind string) *trace.Document {
	t.Helper()
	var doc trace.Document
	if err := json.NewDecoder(buf).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != trace.Version || doc.Kind != kind {
		t.Fatalf("envelope version %d kind %q, want %d %q", doc.Version, doc.Kind, trace.Version, kind)
	}
	return &doc
}

func TestTemporalRoundTrip(t *testing.T) {
	p := sampleProfile()
	var buf bytes.Buffer
	if err := trace.SaveTemporal(&buf, p); err != nil {
		t.Fatal(err)
	}
	doc := decode(t, &buf, "tquad")
	if doc.Temporal == nil || doc.QUAD != nil || doc.Flat != nil || doc.Phases != nil {
		t.Fatalf("document malformed: %+v", doc)
	}
	if !reflect.DeepEqual(doc.Temporal, trace.FromTemporal(p)) {
		t.Fatalf("decoded profile %+v, saved %+v", doc.Temporal, trace.FromTemporal(p))
	}
	got := doc.Temporal
	if got.SliceInterval != p.SliceInterval || got.NumSlices != p.NumSlices ||
		got.TotalInstr != p.TotalInstr || got.IncludeStack != p.IncludeStack {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Kernels) != 1 {
		t.Fatalf("kernels = %d", len(got.Kernels))
	}
	gk, pk := got.Kernels[0], p.Kernels[0]
	if gk.Name != pk.Name || gk.ActivitySpan != pk.ActivitySpan {
		t.Fatalf("kernel mismatch: %+v", gk)
	}
	for i, pt := range pk.Points {
		want := trace.SlicePoint{Slice: pt.Slice, ReadIncl: pt.ReadIncl, ReadExcl: pt.ReadExcl,
			WriteIncl: pt.WriteIncl, WriteExcl: pt.WriteExcl, Instr: pt.Instr}
		if gk.Points[i] != want {
			t.Fatalf("point %d differs: %+v vs %+v", i, gk.Points[i], want)
		}
	}
}

func TestQUADFlatPhasesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rep := &quad.Report{
		Kernels:  []quad.KernelStats{{Name: "a", In: 10, InUnMA: 4, Out: 6, OutUnMA: 3}},
		Bindings: []quad.Binding{{Producer: "a", Consumer: "b", Bytes: 6}},
	}
	if err := trace.SaveQUAD(&buf, rep); err != nil {
		t.Fatal(err)
	}
	doc := decode(t, &buf, "quad")
	if doc.QUAD == nil || doc.QUAD.Kernels[0] != rep.Kernels[0] || doc.QUAD.Bindings[0] != rep.Bindings[0] {
		t.Fatalf("quad roundtrip: %+v", doc.QUAD)
	}

	buf.Reset()
	fp := &flatprof.Profile{TotalSeconds: 1.5, TotalSamples: 100,
		Rows: []flatprof.Row{{Name: "f", Pct: 50, SelfSeconds: 0.75, Calls: 3}}}
	if err := trace.SaveFlat(&buf, fp); err != nil {
		t.Fatal(err)
	}
	doc = decode(t, &buf, "flat")
	if doc.Flat == nil || doc.Flat.Rows[0] != fp.Rows[0] {
		t.Fatalf("flat roundtrip: %+v", doc.Flat)
	}

	buf.Reset()
	phs := []phase.Phase{{Start: 0, End: 10, AggregateMBW: 2.5,
		Kernels: []phase.KernelActivity{{Name: "k", ActivitySpan: 10}}}}
	if err := trace.SavePhases(&buf, phs); err != nil {
		t.Fatal(err)
	}
	doc = decode(t, &buf, "phases")
	if len(doc.Phases) != 1 || doc.Phases[0].Start != 0 || doc.Phases[0].Kernels[0].Name != "k" {
		t.Fatalf("phases roundtrip: %+v", doc.Phases)
	}
}
