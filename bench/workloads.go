package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"tquad/internal/cluster"
	"tquad/internal/core"
	"tquad/internal/dsp"
	"tquad/internal/gos"
	"tquad/internal/phase"
	"tquad/internal/pin"
	"tquad/internal/study"
	"tquad/internal/trace"
	"tquad/internal/vm"
	"tquad/internal/wav"
	"tquad/internal/wfs"
)

// digest hashes strings into a short hex digest.
func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s;", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// profileDigest hashes a tQUAD profile's JSON form.
func profileDigest(p *core.Profile) string {
	var b bytes.Buffer
	// Encoding into a bytes.Buffer cannot fail.
	_ = trace.SaveTemporal(&b, p)
	return digest(b.String())
}

// studyGuest is what the three study workloads share: the guest, built
// with the seed's input, and its native instruction count.
type studyGuest struct {
	opt Options
	s   *study.Study
	ic  uint64
}

// setup builds the guest and counts its native instructions — what
// every study-based tool does before its first profile.
func (g *studyGuest) setup() error {
	cfg := g.opt.guest()
	s, err := study.New(cfg)
	if err != nil {
		return err
	}
	s.W.Input = Synth(cfg.SampleRate, cfg.TotalInputSamples(), g.opt.Seed)
	ic, err := s.NativeICount()
	if err != nil {
		return err
	}
	g.s, g.ic = s, ic
	return nil
}

func (g *studyGuest) guest() *study.Study { return g.s }

func (g *studyGuest) native(tr *Tracer, req int64) (time.Duration, error) {
	d, _, _, err := runNative(tr, req, g.s)
	return d, err
}

func (g *studyGuest) close() {}

// liveDigest profiles the guest live at the slice interval, stack
// included, and hashes the profile: the reference replayed profiles of
// the same configuration must equal.
func (g *studyGuest) liveDigest(iv uint64) (string, error) {
	var t *core.Tool
	_, err := runGuest(g.s, func(e *pin.Engine) error {
		t = core.Attach(e, core.Options{SliceInterval: iv, IncludeStack: true})
		return nil
	})
	if err != nil {
		return "", err
	}
	return profileDigest(t.Snapshot()), nil
}

// runNative runs the guest natively once and times it — the baseline
// host_slowdown_x divides by.  Measured next to the operations, it
// cancels the drift of a shared host's speed out of that ratio.
func runNative(tr *Tracer, req int64, s *study.Study) (time.Duration, *vm.Machine, *gos.OS, error) {
	var (
		m    *vm.Machine
		osys *gos.OS
		err  error
	)
	root := tr.Begin(req, 0, "native", "bench")
	defer tr.End(root)
	t0 := time.Now()
	tr.Do(req, root, "wfs.Workload.NewMachine", "vm", func() { m, osys = s.W.NewMachine() })
	tr.Do(req, root, "vm.Machine.Run", "vm", func() { err = m.Run(wfs.MaxInstr) })
	d := time.Since(t0)
	if err == nil && m.ExitCode != 0 {
		err = fmt.Errorf("guest exit code %d", m.ExitCode)
	}
	if err != nil {
		return 0, nil, nil, fmt.Errorf("native run: %w", err)
	}
	return d, m, osys, nil
}

// sameAsFirst checks that an operation's outputs hash to what the first
// operation's did: the guest is deterministic for a seed.
func sameAsFirst(first *string, d, what string) error {
	if *first == "" {
		*first = d
		return nil
	}
	if d != *first {
		return fmt.Errorf("%s digest %s differs from the first operation's %s", what, d, *first)
	}
	return nil
}

// liveProfile alternates a native run with a live tQUAD run (~64
// slices, stack included): the tquad -config path.
type liveProfile struct {
	studyGuest
	want  []int16 // dsp.Reference output for the seed's input
	ref   string  // digest of the replayed profile of the same configuration
	stats string  // the native run's simulated statistics
}

func (l *liveProfile) prepare() error {
	l.want = dsp.Reference(l.s.W.Cfg, l.s.W.Input.Samples)
	var rec bytes.Buffer
	if err := recordGuest(l.s, &rec); err != nil {
		return err
	}
	profs, _, err := replayProfiles(rec.Bytes(), 2, []study.RunConfig{{Kind: study.RunTQUAD, SliceInterval: l.ic / 64, IncludeStack: true}})
	if err != nil {
		return err
	}
	l.ref = profileDigest(profs[0])
	return nil
}

func (l *liveProfile) op(tr *Tracer, req int64, _ int) (opSample, error) {
	root := tr.Begin(req, 0, "live-profile", "bench")
	defer tr.End(root)
	var (
		m    *vm.Machine
		e    *pin.Engine
		tool *core.Tool
		prof *core.Profile
		err  error
	)
	t0 := time.Now()
	tr.Do(req, root, "wfs.Workload.NewMachine", "vm", func() { m, _ = l.s.W.NewMachine() })
	tr.Do(req, root, "pin.NewEngine", "pin", func() { e = pin.NewEngine(m) })
	tr.Do(req, root, "core.Attach", "core", func() {
		tool = core.Attach(e, core.Options{SliceInterval: l.ic / 64, IncludeStack: true})
	})
	tr.Do(req, root, "vm.Machine.Run", "vm", func() { err = m.Run(wfs.MaxInstr) })
	tr.Do(req, root, "core.Tool.Snapshot", "core", func() { prof = tool.Snapshot() })
	dur := time.Since(t0)
	if err == nil && m.ExitCode != 0 {
		err = fmt.Errorf("guest exit code %d", m.ExitCode)
	}
	if err != nil {
		return opSample{}, fmt.Errorf("live run: %w", err)
	}
	if d := profileDigest(prof); d != l.ref {
		return opSample{}, fmt.Errorf("live profile %s differs from the replayed one %s", d, l.ref)
	}
	return opSample{dur: dur, configs: 1, instr: m.ICount}, nil
}

// native runs the guest natively and checks it: output bit-exact with
// the host reference DSP, and the same simulated statistics and output
// every time.
func (l *liveProfile) native(tr *Tracer, req int64) (time.Duration, error) {
	d, m, osys, err := runNative(tr, req, l.s)
	if err != nil {
		return 0, err
	}
	return d, l.checkNative(m, osys)
}

func (l *liveProfile) checkNative(m *vm.Machine, osys *gos.OS) error {
	out, err := l.s.W.Output(osys)
	if err != nil {
		return err
	}
	if len(out.Samples) != len(l.want) {
		return fmt.Errorf("guest wrote %d samples, reference %d", len(out.Samples), len(l.want))
	}
	for i, v := range l.want {
		if out.Samples[i] != v {
			return fmt.Errorf("guest output differs from dsp.Reference at sample %d", i)
		}
	}
	stats := fmt.Sprintf("instr=%d read=%d write=%d output=%s", m.ICount, m.MemStats.ReadBytes(), m.MemStats.WriteBytes(),
		digest(string(wav.Encode(out))))
	return sameAsFirst(&l.stats, stats, "native statistics")
}

func (l *liveProfile) digest() string { return digest(l.stats, l.ref) }

// printTraced reconciles the ladder with the operation — the vm, pin and
// core rungs are what a live run is made of — and prints the measured
// host-slowdown grid.
func (l *liveProfile) printTraced(opt Options, lad *ladder, opS float64) error {
	opt.logf("  vm+pin+core rungs %.4f s vs untraced op_s %.4f s: %+.1f%%\n", lad.core, opS, 100*safeDiv(lad.core-opS, opS))
	return hostSlowdownGrid(opt, l.s, lad.native)
}

// Sweep grid of slice-cache-sweep: slice intervals as divisors of the
// native instruction count, crossed with three hierarchies.
var (
	sweepDivisors = []uint64{256, 64, 16}
	sweepCaches   = []string{"", "l1=32k/8/64,l2=256k/8/64", "l1=32k/8/64,l2=256k/8/64,llc=2m/16/64"}
)

// sliceCacheSweep runs the whole slice x cache grid on a fresh
// scheduler: one recording, one decode pass, nine consumers.
type sliceCacheSweep struct {
	studyGuest
	ref   string // live profile at native/64, no cache
	first string
}

func (w *sliceCacheSweep) prepare() (err error) {
	w.ref, err = w.liveDigest(w.ic / 64)
	return err
}

func (w *sliceCacheSweep) op(tr *Tracer, req int64, _ int) (opSample, error) {
	root := tr.Begin(req, 0, "slice-cache-sweep", "bench")
	defer tr.End(root)
	var (
		sch  *study.Scheduler
		pend []*study.Pending
		errs []error
	)
	t0 := time.Now()
	tr.Do(req, root, "study.NewScheduler", "study", func() {
		sch = study.NewScheduler(w.s, 2)
		sch.SetReplayJobs(2)
	})
	tr.Do(req, root, "study.Scheduler.Submit", "study", func() {
		for _, div := range sweepDivisors {
			for _, c := range sweepCaches {
				pend = append(pend, sch.Submit(study.RunConfig{
					Kind: study.RunTQUAD, SliceInterval: w.ic / div, IncludeStack: true, Cache: c,
				}))
			}
		}
	})
	tr.Do(req, root, "study.Scheduler.Flush", "study", func() { errs = sch.Flush() })
	tr.Do(req, root, "study.Scheduler.Close", "study", sch.Close)
	dur := time.Since(t0)
	if len(errs) > 0 {
		return opSample{}, errs[0]
	}
	if g, d := sch.GuestExecutions(), sch.DecodePasses(); g != 1 || d != 1 {
		return opSample{}, fmt.Errorf("sweep used %d guest executions and %d decode passes, want 1 and 1", g, d)
	}
	var parts []string
	for i, p := range pend {
		res, err := p.Wait()
		if err != nil {
			return opSample{}, err
		}
		pd := profileDigest(res.Temporal)
		if sweepDivisors[i/len(sweepCaches)] == 64 && res.Mem == nil && pd != w.ref {
			return opSample{}, fmt.Errorf("replayed profile %s differs from the live one %s", pd, w.ref)
		}
		parts = append(parts, pd)
		if res.Mem != nil {
			parts = append(parts, res.Mem.String())
		}
	}
	if err := sameAsFirst(&w.first, digest(parts...), "sweep output"); err != nil {
		return opSample{}, err
	}
	return opSample{dur: dur, configs: len(pend), instr: w.ic}, nil
}

func (w *sliceCacheSweep) digest() string { return w.first }

// paperConfigs is how many distinct configurations one evaluation runs:
// native, flat, instrflat, QUAD with and without the stack, and tQUAD
// at native/2000, /64 and /16 in both stack modes plus /256 and 5000
// with the stack.
const paperConfigs = 13

// paperEval runs the whole wfsstudy evaluation: the Table I-IV and
// Figure 6/7 runs and the slowdown grid through one scheduler, then
// phase detection, clustering and every table and figure.
type paperEval struct {
	studyGuest
	ref   string // live profile at native/64 (Figure 6)
	first string
}

func (w *paperEval) prepare() (err error) {
	w.ref, err = w.liveDigest(w.ic / 64)
	return err
}

func (w *paperEval) op(tr *Tracer, req int64, _ int) (opSample, error) {
	root := tr.Begin(req, 0, "paper-eval", "bench")
	defer tr.End(root)
	t0 := time.Now()
	var sch *study.Scheduler
	tr.Do(req, root, "study.NewScheduler", "study", func() { sch = study.NewScheduler(w.s, 2) })
	out, fig6, err := w.evaluate(tr, req, root, sch)
	tr.Do(req, root, "study.Scheduler.Close", "study", sch.Close)
	dur := time.Since(t0)
	if err != nil {
		return opSample{}, err
	}
	if g := sch.GuestExecutions(); g != 1 {
		return opSample{}, fmt.Errorf("evaluation used %d guest executions, want 1", g)
	}
	if fig6 != w.ref {
		return opSample{}, fmt.Errorf("replayed Figure 6 profile %s differs from the live one %s", fig6, w.ref)
	}
	if err := sameAsFirst(&w.first, digest(out), "evaluation output"); err != nil {
		return opSample{}, err
	}
	return opSample{dur: dur, configs: paperConfigs, instr: w.ic}, nil
}

// evaluate is cmd/wfsstudy's sweep and rendering, without the
// memory-hierarchy and observability sections.  It returns the rendered
// text and the digest of the Figure 6 profile.
func (w *paperEval) evaluate(tr *Tracer, req, root int64, sch *study.Scheduler) (string, string, error) {
	cfg := w.s.W.Cfg
	var (
		native                                               uint64
		err                                                  error
		pFlat, pQuadEx, pQuadIn, pInstr, pFig6, pFig7, pPhas *study.Pending
		rows                                                 []study.SlowdownRow
		errs                                                 []error
	)
	tr.Do(req, root, "study.Scheduler.NativeICount", "study", func() { native, err = sch.NativeICount() })
	if err != nil {
		return "", "", err
	}
	tr.Do(req, root, "study.Scheduler.Submit", "study", func() {
		pFlat = sch.Submit(study.RunConfig{Kind: study.RunFlat})
		pQuadEx = sch.Submit(study.RunConfig{Kind: study.RunQUAD, IncludeStack: false})
		pQuadIn = sch.Submit(study.RunConfig{Kind: study.RunQUAD, IncludeStack: true})
		pInstr = sch.Submit(study.RunConfig{Kind: study.RunInstrFlat})
		pFig6 = sch.Submit(study.RunConfig{Kind: study.RunTQUAD, SliceInterval: native / 64, IncludeStack: true})
		pFig7 = sch.Submit(study.RunConfig{Kind: study.RunTQUAD, SliceInterval: native / 256, IncludeStack: true})
		pPhas = sch.Submit(study.RunConfig{Kind: study.RunTQUAD, SliceInterval: 5000, IncludeStack: true})
	})
	tr.Do(req, root, "study.Scheduler.Slowdown", "study", func() {
		rows, err = sch.Slowdown([]uint64{native / 2000, native / 64, native / 16})
	})
	tr.Do(req, root, "study.Scheduler.Flush", "study", func() { errs = sch.Flush() })
	if len(errs) > 0 {
		return "", "", errs[0]
	}
	if err != nil {
		return "", "", err
	}
	var res [7]*study.RunResult
	for i, p := range []*study.Pending{pFlat, pQuadEx, pQuadIn, pInstr, pFig6, pFig7, pPhas} {
		if res[i], err = p.Wait(); err != nil {
			return "", "", err
		}
	}
	flat, quadEx, quadIn, instr, fig6, fig7, phasesRes := res[0], res[1], res[2], res[3], res[4], res[5], res[6]
	sf, _ := quadEx.Quad.Kernel("AudioIo_setFrames")
	if want := uint64(cfg.Frames * cfg.FrameSize * cfg.Speakers * 8); sf.Out != want {
		return "", "", fmt.Errorf("AudioIo_setFrames OUT %d bytes, want %d", sf.Out, want)
	}

	var b bytes.Buffer
	tr.Do(req, root, "study.Render", "study", func() {
		b.WriteString(study.RenderTableI(flat.Flat))
		b.WriteString(study.RenderTableII(quadEx.Quad, quadIn.Quad))
		b.WriteString(study.RenderTableIII(flat.Flat, instr.Flat))
		b.WriteString(study.RenderFigure("bytes per slice", fig6.Temporal, wfs.TopTenKernels(), true, true, 64))
		b.WriteString(study.RenderFigure("bytes per slice", fig7.Temporal, wfs.LastTenKernels(), false, false, 128))
	})
	var phases []phase.Phase
	tr.Do(req, root, "study.Study.PhasesFromProfile", "phase", func() {
		phases = w.s.PhasesFromProfile(phasesRes.Temporal)
	})
	tr.Do(req, root, "study.Render", "study", func() {
		b.WriteString(study.RenderTableIV(phases, phasesRes.Temporal.NumSlices))
		b.WriteString(study.RenderSlowdown(rows))
	})
	tr.Do(req, root, "cluster.Build", "study", func() {
		cl := cluster.Build(phasesRes.Temporal, quadIn.Quad, cluster.Options{TargetClusters: 5, IncludeStack: true})
		for i, c := range cl.Clusters {
			fmt.Fprintf(&b, "cluster %d (intra %d bytes): %v\n", i+1, c.IntraBytes, c.Kernels)
		}
		fmt.Fprintf(&b, "inter-cluster communication: %d bytes\n", cl.InterBytes)
	})
	return b.String(), profileDigest(fig6.Temporal), nil
}

func (w *paperEval) digest() string { return w.first }
