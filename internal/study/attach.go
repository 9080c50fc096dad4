// The one way a run configuration becomes a profile: Attach wires the
// configuration's tools onto an event source — a live pin.Engine or an
// etrace replay consumer — and Collect turns the finished run into a
// RunResult.  The scheduler's live and replayed runs and cmd/tquad's
// single runs all go through this pair, so no path can attach or report
// differently.
package study

import (
	"fmt"

	"tquad/internal/core"
	"tquad/internal/flatprof"
	"tquad/internal/memsim"
	"tquad/internal/obs"
	"tquad/internal/pin"
	"tquad/internal/quad"
)

// Tools holds whichever tools a configuration attached.
type Tools struct {
	cfg  RunConfig
	flat *flatprof.Profiler
	quad *quad.Tool
	core *core.Tool
	mem  *memsim.Tool
}

// Attach attaches the configuration's tools to the event source.  A
// RunNative configuration attaches nothing, and h may then be nil.  tr
// receives the flat profiler's spans.
func Attach(h pin.Host, cfg RunConfig, tr *obs.Tracer) (*Tools, error) {
	ts := &Tools{cfg: cfg}
	switch cfg.Kind {
	case RunNative:
	case RunFlat:
		ts.flat = flatprof.Attach(h, flatprof.Options{Tracer: tr})
	case RunQUAD:
		ts.quad = quad.Attach(h, quad.Options{IncludeStack: cfg.IncludeStack, ExcludeLibs: cfg.ExcludeLibs})
	case RunInstrFlat:
		// The paper's configuration: QUAD with stack accesses discarded
		// early, profiled by the flat profiler (Table III).
		quad.Attach(h, quad.Options{IncludeStack: false})
		ts.flat = flatprof.Attach(h, flatprof.Options{Tracer: tr})
	case RunTQUAD:
		ts.core = core.Attach(h, core.Options{
			SliceInterval: cfg.SliceInterval,
			IncludeStack:  cfg.IncludeStack,
			ExcludeLibs:   cfg.ExcludeLibs,
		})
		if cfg.Cache != "" {
			mc, err := memsim.ParseConfig(cfg.Cache)
			if err != nil {
				return nil, fmt.Errorf("study: cache config: %w", err)
			}
			// The simulator slices on the same interval as the profiler so
			// the two per-kernel series line up column for column.
			ts.mem, err = memsim.Attach(h, memsim.Options{
				Config:        mc,
				SliceInterval: cfg.SliceInterval,
				ExcludeLibs:   cfg.ExcludeLibs,
			})
			if err != nil {
				return nil, fmt.Errorf("study: cache config: %w", err)
			}
		}
	default:
		return nil, fmt.Errorf("study: unknown run kind %d", cfg.Kind)
	}
	return ts, nil
}

// Collect builds the finished run's result: the simulated clock the
// host ended on (icount guest instructions plus overhead charged) and
// the reports of the configuration's kind.  The tools publish their
// metrics into ro, and a tQUAD snapshot is traced as a "snapshot" span;
// a nil ro records neither.
func (ts *Tools) Collect(icount, overhead uint64, ro *obs.Observer) *RunResult {
	res := &RunResult{
		Config: ts.cfg, Key: ts.cfg.Key(),
		ICount: icount, Overhead: overhead, Time: icount + overhead,
	}
	switch ts.cfg.Kind {
	case RunFlat, RunInstrFlat:
		res.Flat = ts.flat.Report()
	case RunQUAD:
		res.Quad = ts.quad.Report()
	case RunTQUAD:
		ts.core.PublishMetrics(ro.Registry())
		snap := ro.Tracer().Start("snapshot")
		res.Temporal = ts.core.Snapshot()
		snap.SetInstr(res.Temporal.TotalInstr)
		snap.SetBytes(profileBytes(res.Temporal))
		snap.End()
		res.Breakdown = ts.core.Breakdown()
		if ts.mem != nil {
			ts.mem.PublishMetrics(ro.Registry())
			res.Mem = ts.mem.Snapshot()
		}
	}
	return res
}

// profileBytes sums a profile's total traffic (stack included).
func profileBytes(p *core.Profile) uint64 {
	var n uint64
	for _, k := range p.Kernels {
		n += k.TotalReadIncl + k.TotalWriteIncl
	}
	return n
}
