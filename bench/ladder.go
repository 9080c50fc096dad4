package bench

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"tquad/internal/core"
	"tquad/internal/etrace"
	"tquad/internal/flatprof"
	"tquad/internal/memsim"
	"tquad/internal/phase"
	"tquad/internal/pin"
	"tquad/internal/quad"
	"tquad/internal/study"
	"tquad/internal/vm"
	"tquad/internal/wfs"
)

// PerLayer are the metrics of a traced run.  README.md names the
// end-to-end metric each one should move, and on which workload.
var PerLayer = append([]MetricDef{
	{"vm.ns_per_instr", "ns/instr", "lower"},
	{"vm.block_fast_ratio", "ratio", "higher"},
	{"vm.instr", "instr", "lower"},
	{"mem.read_bytes", "B", "lower"},
	{"mem.write_bytes", "B", "lower"},
	{"pin.ns_per_instr", "ns/instr", "lower"},
	{"core.ns_per_access", "ns/access", "lower"},
	{"quad.ns_per_access", "ns/access", "lower"},
	{"flatprof.ns_per_instr", "ns/instr", "lower"},
	{"memsim.ns_per_access", "ns/access", "lower"},
	{"memsim.offchip_bytes", "B", "lower"},
	{"etrace.encode_ns_per_instr", "ns/instr", "lower"},
	{"etrace.bytes_per_instr", "B/instr", "lower"},
	{"etrace.decode_ns_per_instr_j1", "ns/instr", "lower"},
	{"etrace.decode_ns_per_instr_j2", "ns/instr", "lower"},
	{"study.sched_overhead_s", "s", "lower"},
	{"study.render_ms", "ms", "lower"},
	{"phase.detect_ms", "ms", "lower"},
	{"jobd.submit_ms", "ms", "lower"},
	{"jobd.queue_wait_s", "s", "lower"},
	{"jobd.run_s", "s", "lower"},
	{"jobd.fetch_ms", "ms", "lower"},
	{"jobd.journal_bytes_per_job", "B/job", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"trace_overhead_pct", "%", "lower"},
}, cpuShares()...)

func cpuShares() []MetricDef {
	var defs []MetricDef
	for _, l := range Layers {
		defs = append(defs, MetricDef{l + ".cpu_share", "ratio", "lower"})
	}
	return defs
}

// setMetric records a value under its defined unit.
func setMetric(m map[string]Metric, name string, v float64) {
	for _, defs := range [][]MetricDef{EndToEnd, PerLayer} {
		for _, d := range defs {
			if d.Name == name {
				m[name] = Metric{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("bench: undefined metric " + name)
}

// rungRepeats is how many times each rung runs; its time is the median.
const rungRepeats = 3

// ladderCache is the hierarchy of the memsim rung (the sweep's largest).
const ladderCache = "l1=32k/8/64,l2=256k/8/64,llc=2m/16/64"

// ladderConfigs are the configurations of the replay and scheduler
// rungs: two slice widths and both stack modes, plus the fine slicing
// phase detection runs on.
func ladderConfigs(ic uint64) []study.RunConfig {
	return []study.RunConfig{
		{Kind: study.RunTQUAD, SliceInterval: ic / 64, IncludeStack: true},
		{Kind: study.RunTQUAD, SliceInterval: ic / 16, IncludeStack: false},
		{Kind: study.RunTQUAD, SliceInterval: 5000, IncludeStack: true},
	}
}

// ladder holds the rung times (median seconds) and the counts they are
// divided by.  Each live rung adds one public attach to the one below
// it: native, then pin with a null tool, then pin with one tool.
type ladder struct {
	native, pin, core, quad, flat, memsim, record float64
	decode1, decode2, replay, sched               float64
	phaseMS, renderMS                             float64

	instr, accesses, readBytes, writeBytes, offchip uint64
	traceBytes                                      int
	fastRatio                                       float64

	jobd      jobdStats
	attempted int
}

// timeRung runs f rungRepeats times and returns the median seconds.
func (l *ladder) timeRung(f func() error) (float64, error) {
	var ts []float64
	for i := 0; i < rungRepeats; i++ {
		l.attempted++
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return Median(ts), nil
}

// nullTool puts an empty analysis call on every instruction the
// profiling tools and the recorder instrument, so the pin rung pays the
// dispatch they pay and none of their analysis.
func nullTool(ins *pin.INS) {
	if ins.IsMemoryRead() || ins.IsMemoryWrite() || ins.IsCall() || ins.IsRet() {
		ins.InsertCall(func(*pin.Context) {})
	}
}

// runGuest runs a fresh machine of s with attach called on its engine
// (nil: native, no engine) and checks that the guest exited cleanly.
func runGuest(s *study.Study, attach func(e *pin.Engine) error) (*vm.Machine, error) {
	m, _ := s.W.NewMachine()
	if attach != nil {
		if err := attach(pin.NewEngine(m)); err != nil {
			return nil, err
		}
	}
	if err := m.Run(wfs.MaxInstr); err != nil {
		return nil, err
	}
	if m.ExitCode != 0 {
		return nil, fmt.Errorf("guest exit code %d", m.ExitCode)
	}
	return m, nil
}

// recordGuest records one guest execution into w.
func recordGuest(s *study.Study, w io.Writer) error {
	var rec *etrace.Recorder
	_, err := runGuest(s, func(e *pin.Engine) (err error) {
		rec, err = etrace.Record(e, w, etrace.RecordOptions{})
		return err
	})
	if err != nil {
		return err
	}
	return rec.Finish()
}

// byteCounter is a writer that keeps only the count of bytes written.
type byteCounter int

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// replayProfiles replays a recording once, with jobs decode workers,
// through one tQUAD consumer per configuration (none: a bare decode).
func replayProfiles(trace []byte, jobs int, cfgs []study.RunConfig) ([]*core.Profile, uint64, error) {
	pr, err := etrace.NewParallelReplayer(bytes.NewReader(trace), int64(len(trace)), etrace.ParallelOptions{Jobs: jobs})
	if err != nil {
		return nil, 0, err
	}
	host := pr.NewConsumer()
	tools := make([]*core.Tool, len(cfgs))
	for i, c := range cfgs {
		h := host
		if i > 0 {
			h = pr.NewConsumer()
		}
		tools[i] = core.Attach(h, core.Options{SliceInterval: c.SliceInterval, IncludeStack: c.IncludeStack})
	}
	if err := pr.Replay(); err != nil {
		return nil, 0, err
	}
	profs := make([]*core.Profile, len(tools))
	for i, t := range tools {
		profs[i] = t.Snapshot()
	}
	return profs, host.ICount(), nil
}

// schedule runs the configurations through a fresh scheduler the way
// the sweeps do: two workers, two decode workers, one recording.
func schedule(s *study.Study, cfgs []study.RunConfig) ([]*study.RunResult, error) {
	sch := study.NewScheduler(s, 2)
	defer sch.Close()
	sch.SetReplayJobs(2)
	pend := make([]*study.Pending, len(cfgs))
	for i, c := range cfgs {
		pend[i] = sch.Submit(c)
	}
	if errs := sch.Flush(); len(errs) > 0 {
		return nil, errs[0]
	}
	out := make([]*study.RunResult, len(pend))
	for i, p := range pend {
		res, err := p.Wait()
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// runLadder measures every rung on the guest of s, checking each rung's
// outputs where another rung computes the same thing.
func runLadder(s *study.Study) (*ladder, error) {
	l := &ladder{}
	ic, err := s.NativeICount()
	if err != nil {
		return nil, err
	}
	cfgs := ladderConfigs(ic)
	mc, err := memsim.ParseConfig(ladderCache)
	if err != nil {
		return nil, err
	}
	// The replay rungs decode one recording kept in memory; the encode
	// rung writes to a byte counter, so it times encoding alone.
	var rec bytes.Buffer
	if err := recordGuest(s, &rec); err != nil {
		return nil, fmt.Errorf("recording: %w", err)
	}
	trace := rec.Bytes()
	var (
		native    *vm.Machine
		replayed  []*core.Profile
		scheduled []*study.RunResult
	)
	decode := func(jobs int) func() error {
		return func() error {
			_, n, err := replayProfiles(trace, jobs, nil)
			if err == nil && n != ic {
				err = fmt.Errorf("decoded %d instructions, recorded %d", n, ic)
			}
			return err
		}
	}
	rungs := []struct {
		name string
		dst  *float64
		run  func() error
	}{
		{"native", &l.native, func() (err error) {
			native, err = runGuest(s, nil)
			return err
		}},
		{"pin", &l.pin, func() error {
			_, err := runGuest(s, func(e *pin.Engine) error { e.INSAddInstrumentFunction(nullTool); return nil })
			return err
		}},
		{"core", &l.core, func() error {
			var t *core.Tool
			_, err := runGuest(s, func(e *pin.Engine) error {
				t = core.Attach(e, core.Options{SliceInterval: cfgs[0].SliceInterval, IncludeStack: true})
				return nil
			})
			if err == nil {
				t.Snapshot()
			}
			return err
		}},
		{"quad", &l.quad, func() error {
			var t *quad.Tool
			_, err := runGuest(s, func(e *pin.Engine) error { t = quad.Attach(e, quad.Options{IncludeStack: true}); return nil })
			if err == nil {
				t.Report()
			}
			return err
		}},
		{"flatprof", &l.flat, func() error {
			var p *flatprof.Profiler
			_, err := runGuest(s, func(e *pin.Engine) error { p = flatprof.Attach(e, flatprof.Options{}); return nil })
			if err == nil {
				p.Report()
			}
			return err
		}},
		{"memsim", &l.memsim, func() error {
			var t *memsim.Tool
			_, err := runGuest(s, func(e *pin.Engine) (err error) {
				t, err = memsim.Attach(e, memsim.Options{Config: mc, SliceInterval: cfgs[0].SliceInterval})
				return err
			})
			if err == nil {
				l.offchip = t.Snapshot().OffChipBytes()
			}
			return err
		}},
		{"etrace encode", &l.record, func() error {
			var n byteCounter
			err := recordGuest(s, &n)
			l.traceBytes = int(n)
			return err
		}},
		{"etrace decode j1", &l.decode1, decode(1)},
		{"etrace decode j2", &l.decode2, decode(2)},
		{"replay", &l.replay, func() (err error) {
			replayed, _, err = replayProfiles(trace, 2, cfgs)
			return err
		}},
		{"scheduler", &l.sched, func() (err error) {
			scheduled, err = schedule(s, cfgs)
			return err
		}},
	}
	for _, r := range rungs {
		if *r.dst, err = l.timeRung(r.run); err != nil {
			return nil, fmt.Errorf("%s rung: %w", r.name, err)
		}
	}
	l.instr = native.ICount
	l.readBytes, l.writeBytes = native.MemStats.ReadBytes(), native.MemStats.WriteBytes()
	for i := range native.MemStats.ReadOps {
		l.accesses += native.MemStats.ReadOps[i] + native.MemStats.WriteOps[i]
	}
	l.fastRatio = safeDiv(float64(native.BlockStats.FastRuns), float64(native.BlockStats.Entries))
	for i := range cfgs {
		if a, b := profileDigest(replayed[i]), profileDigest(scheduled[i].Temporal); a != b {
			return nil, fmt.Errorf("replayed profile %s differs from the scheduler's", cfgs[i].Key())
		}
	}

	fine := scheduled[2].Temporal
	var phases []phase.Phase
	phaseSec, _ := l.timeRung(func() error {
		phases = s.PhasesFromProfile(fine)
		return nil
	})
	l.phaseMS = phaseSec * 1e3
	intervals := []uint64{cfgs[0].SliceInterval, cfgs[1].SliceInterval, cfgs[2].SliceInterval}
	renderSec, _ := l.timeRung(func() error {
		var b bytes.Buffer
		study.WriteSweepReport(&b, scheduled, intervals, false,
			study.RenderOptions{Metric: "reads", Kernels: "top", Width: 64, IncludeStack: true})
		b.WriteString(study.RenderTableIV(phases, fine.NumSlices))
		return nil
	})
	l.renderMS = renderSec * 1e3

	if l.jobd, err = l.jobdRung(); err != nil {
		return nil, fmt.Errorf("jobd rung: %w", err)
	}
	return l, nil
}

// hostSlowdownGrid prints the measured host slowdown of live tQUAD runs
// over the native rung, by slice interval and stack mode — the measured
// counterpart of the paper's Section V.A figure — beside the simulated
// slowdown (the overhead model's clock over native instructions) of the
// same runs.  Each cell is one run.
func hostSlowdownGrid(opt Options, s *study.Study, native float64) error {
	ic, err := s.NativeICount()
	if err != nil {
		return err
	}
	opt.logf("  host slowdown grid (one live run per cell, native %.4f s):\n", native)
	opt.logf("    %-14s %-8s %10s %10s\n", "slice", "stack", "measured", "simulated")
	for _, div := range []uint64{2000, 64, 16} {
		for _, incl := range []bool{true, false} {
			var t *core.Tool
			t0 := time.Now()
			m, err := runGuest(s, func(e *pin.Engine) error {
				t = core.Attach(e, core.Options{SliceInterval: ic / div, IncludeStack: incl})
				return nil
			})
			if err != nil {
				return err
			}
			t.Snapshot()
			host := time.Since(t0).Seconds()
			stack := "exclude"
			if incl {
				stack = "include"
			}
			opt.logf("    native/%-7d %-8s %9.2fx %9.2fx\n", div, stack, host/native, float64(m.Time())/float64(ic))
		}
	}
	return nil
}

// metrics records the ladder's per-layer metrics.  Tool rungs subtract
// the pin rung, whose null tool dispatches the same events; flatprof,
// which instruments routine entries rather than memory references,
// subtracts the native rung.
func (l *ladder) metrics(m map[string]Metric) {
	perInstr := func(sec float64) float64 { return safeDiv(sec*1e9, float64(l.instr)) }
	perAccess := func(sec float64) float64 { return safeDiv(sec*1e9, float64(l.accesses)) }
	setMetric(m, "vm.ns_per_instr", perInstr(l.native))
	setMetric(m, "vm.block_fast_ratio", l.fastRatio)
	setMetric(m, "vm.instr", float64(l.instr))
	setMetric(m, "mem.read_bytes", float64(l.readBytes))
	setMetric(m, "mem.write_bytes", float64(l.writeBytes))
	setMetric(m, "pin.ns_per_instr", perInstr(l.pin-l.native))
	setMetric(m, "core.ns_per_access", perAccess(l.core-l.pin))
	setMetric(m, "quad.ns_per_access", perAccess(l.quad-l.pin))
	setMetric(m, "flatprof.ns_per_instr", perInstr(l.flat-l.native))
	setMetric(m, "memsim.ns_per_access", perAccess(l.memsim-l.pin))
	setMetric(m, "memsim.offchip_bytes", float64(l.offchip))
	setMetric(m, "etrace.encode_ns_per_instr", perInstr(l.record-l.pin))
	setMetric(m, "etrace.bytes_per_instr", safeDiv(float64(l.traceBytes), float64(l.instr)))
	setMetric(m, "etrace.decode_ns_per_instr_j1", perInstr(l.decode1))
	setMetric(m, "etrace.decode_ns_per_instr_j2", perInstr(l.decode2))
	setMetric(m, "study.sched_overhead_s", l.sched-(l.record+l.replay))
	setMetric(m, "study.render_ms", l.renderMS)
	setMetric(m, "phase.detect_ms", l.phaseMS)
	setMetric(m, "jobd.submit_ms", l.jobd.submitMS)
	setMetric(m, "jobd.queue_wait_s", l.jobd.queueS)
	setMetric(m, "jobd.run_s", l.jobd.runS)
	setMetric(m, "jobd.fetch_ms", l.jobd.fetchMS)
	setMetric(m, "jobd.journal_bytes_per_job", l.jobd.journalBytesPerJob)
}

// log prints the ladder.
func (l *ladder) log(opt Options) {
	opt.logf("  ladder (median of %d, %d guest instructions, %d memory accesses):\n", rungRepeats, l.instr, l.accesses)
	row := func(name string, sec, base float64, per string) {
		opt.logf("    %-18s %9.4f s  +%9.4f s  %s\n", name, sec, sec-base, per)
	}
	perI := func(sec float64) string { return fmt.Sprintf("%.3f ns/instr", safeDiv(sec*1e9, float64(l.instr))) }
	perA := func(sec float64) string { return fmt.Sprintf("%.3f ns/access", safeDiv(sec*1e9, float64(l.accesses))) }
	row("native", l.native, 0, perI(l.native))
	row("+pin null tool", l.pin, l.native, perI(l.pin-l.native))
	row("+core", l.core, l.pin, perA(l.core-l.pin))
	row("+quad", l.quad, l.pin, perA(l.quad-l.pin))
	row("+flatprof", l.flat, l.native, perI(l.flat-l.native))
	row("+memsim", l.memsim, l.pin, perA(l.memsim-l.pin))
	row("+etrace encode", l.record, l.pin, perI(l.record-l.pin))
	row("etrace decode j1", l.decode1, 0, perI(l.decode1))
	row("etrace decode j2", l.decode2, 0, perI(l.decode2))
	row("replay 3 configs", l.replay, 0, "")
	row("scheduler 3 cfgs", l.sched, l.record+l.replay, "scheduler overhead over encode + replay")
	opt.logf("    phase.Detect %.2f ms, render %.2f ms, trace %.2f B/instr\n",
		l.phaseMS, l.renderMS, safeDiv(float64(l.traceBytes), float64(l.instr)))
	opt.logf("    jobd: submit %.2f ms, queue wait %.4f s, run %.4f s, fetch %.2f ms, journal %.0f B/job\n",
		l.jobd.submitMS, l.jobd.queueS, l.jobd.runS, l.jobd.fetchMS, l.jobd.journalBytesPerJob)
}
