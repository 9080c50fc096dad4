// The one way a run configuration becomes a profile: attachGroup wires
// the tools of one or more configurations onto an event source — a live
// pin.Engine or an etrace replay consumer — and Collect turns each
// finished run into a RunResult.  Attach is its one-configuration case.
// The scheduler's live and replayed runs and cmd/tquad's single runs all
// go through this pair, so no path can attach or report differently.
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
	ts, err := attachGroup(h, []RunConfig{cfg}, tr)
	if err != nil {
		return nil, err
	}
	return ts[0], nil
}

// groupKey names the configurations that can share one event source and
// one set of tools: tQUAD configurations that differ only in
// SliceInterval share one call-stack attribution and at most one cache
// simulation, with an accumulator per interval.  Every other
// configuration is alone in its group.
func groupKey(cfg RunConfig) string {
	if cfg.Kind == RunTQUAD {
		cfg.SliceInterval = 0
	}
	return cfg.Key()
}

// attachGroup attaches the tools of configurations with one groupKey to
// the event source, and returns them in cfgs' order: each Tools reports
// exactly what it would attached alone.
func attachGroup(h pin.Host, cfgs []RunConfig, tr *obs.Tracer) ([]*Tools, error) {
	ts := make([]*Tools, len(cfgs))
	for i, c := range cfgs {
		ts[i] = &Tools{cfg: c}
	}
	cfg := cfgs[0]
	switch cfg.Kind {
	case RunNative:
	case RunFlat:
		ts[0].flat = flatprof.Attach(h, flatprof.Options{Tracer: tr})
	case RunQUAD:
		ts[0].quad = quad.Attach(h, quad.Options{IncludeStack: cfg.IncludeStack, ExcludeLibs: cfg.ExcludeLibs})
	case RunInstrFlat:
		// The paper's configuration: QUAD with stack accesses discarded
		// early, profiled by the flat profiler (Table III).
		quad.Attach(h, quad.Options{IncludeStack: false})
		ts[0].flat = flatprof.Attach(h, flatprof.Options{Tracer: tr})
	case RunTQUAD:
		ivs := make([]uint64, len(cfgs))
		for i, c := range cfgs {
			ivs[i] = c.SliceInterval
		}
		for i, t := range core.AttachIntervals(h, core.Options{IncludeStack: cfg.IncludeStack, ExcludeLibs: cfg.ExcludeLibs}, ivs) {
			ts[i].core = t
		}
		if cfg.Cache != "" {
			mc, err := memsim.ParseConfig(cfg.Cache)
			if err != nil {
				return nil, fmt.Errorf("study: cache config: %w", err)
			}
			// The simulator slices on the same interval as the profiler so
			// the two per-kernel series line up column for column.
			mems, err := memsim.AttachIntervals(h, memsim.Options{Config: mc, ExcludeLibs: cfg.ExcludeLibs}, ivs)
			if err != nil {
				return nil, fmt.Errorf("study: cache config: %w", err)
			}
			for i, t := range mems {
				ts[i].mem = t
			}
		}
	default:
		return nil, fmt.Errorf("study: unknown run kind %d", cfg.Kind)
	}
	return ts, nil
}

// overhead returns the simulated analysis cost a tQUAD configuration's
// tools charged: what the host clock of a replay with these tools alone
// attached reads, whether or not they shared their host.
func (ts *Tools) overhead() uint64 {
	n := ts.core.Breakdown().Total()
	if ts.mem != nil {
		n += ts.mem.Overhead()
	}
	return n
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
