// Package trace serialises profiling results to JSON so they can leave
// the process — for archival, diffing between runs, or plotting the
// Figure 6/7 surfaces with external tooling.  The schema is versioned
// and stable: every document carries its Version and Kind.
package trace

import (
	"encoding/json"
	"io"

	"tquad/internal/core"
	"tquad/internal/flatprof"
	"tquad/internal/phase"
	"tquad/internal/quad"
)

// Version is the current schema version.
const Version = 1

// Document is the on-disk envelope.  Exactly one payload field is set.
type Document struct {
	Version  int               `json:"version"`
	Kind     string            `json:"kind"` // "tquad", "quad", "flat", "phases"
	Temporal *TemporalProfile  `json:"temporal,omitempty"`
	QUAD     *quad.Report      `json:"quad,omitempty"`
	Flat     *flatprof.Profile `json:"flat,omitempty"`
	Phases   []phase.Phase     `json:"phases,omitempty"`
}

// TemporalProfile mirrors core.Profile with exported-field JSON names.
type TemporalProfile struct {
	SliceInterval uint64          `json:"slice_interval"`
	NumSlices     uint64          `json:"num_slices"`
	TotalInstr    uint64          `json:"total_instr"`
	IncludeStack  bool            `json:"include_stack"`
	Kernels       []KernelProfile `json:"kernels"`
}

// KernelProfile is one kernel's temporal record.
type KernelProfile struct {
	Name         string       `json:"name"`
	FirstSlice   uint64       `json:"first_slice"`
	LastSlice    uint64       `json:"last_slice"`
	ActivitySpan uint64       `json:"activity_span"`
	Points       []SlicePoint `json:"points"`
}

// SlicePoint is one slice's traffic.
type SlicePoint struct {
	Slice     uint64 `json:"slice"`
	ReadIncl  uint64 `json:"read_incl"`
	ReadExcl  uint64 `json:"read_excl"`
	WriteIncl uint64 `json:"write_incl"`
	WriteExcl uint64 `json:"write_excl"`
	Instr     uint64 `json:"instr"`
}

// FromTemporal converts a core.Profile into its serialisable form.
func FromTemporal(p *core.Profile) *TemporalProfile {
	out := &TemporalProfile{
		SliceInterval: p.SliceInterval,
		NumSlices:     p.NumSlices,
		TotalInstr:    p.TotalInstr,
		IncludeStack:  p.IncludeStack,
	}
	for _, k := range p.Kernels {
		kp := KernelProfile{
			Name:         k.Name,
			FirstSlice:   k.FirstSlice,
			LastSlice:    k.LastSlice,
			ActivitySpan: k.ActivitySpan,
		}
		for _, pt := range k.Points {
			kp.Points = append(kp.Points, SlicePoint{
				Slice: pt.Slice, ReadIncl: pt.ReadIncl, ReadExcl: pt.ReadExcl,
				WriteIncl: pt.WriteIncl, WriteExcl: pt.WriteExcl, Instr: pt.Instr,
			})
		}
		out.Kernels = append(out.Kernels, kp)
	}
	return out
}

// SaveTemporal writes a tQUAD profile.
func SaveTemporal(w io.Writer, p *core.Profile) error {
	return save(w, Document{Version: Version, Kind: "tquad", Temporal: FromTemporal(p)})
}

// SaveQUAD writes a QUAD report.
func SaveQUAD(w io.Writer, r *quad.Report) error {
	return save(w, Document{Version: Version, Kind: "quad", QUAD: r})
}

// SaveFlat writes a flat profile.
func SaveFlat(w io.Writer, p *flatprof.Profile) error {
	return save(w, Document{Version: Version, Kind: "flat", Flat: p})
}

// SavePhases writes a phase table.
func SavePhases(w io.Writer, phases []phase.Phase) error {
	return save(w, Document{Version: Version, Kind: "phases", Phases: phases})
}

func save(w io.Writer, doc Document) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
