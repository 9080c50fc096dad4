// Paper-shape reproduction tests: each test asserts one family of
// observations from Section V of the paper against the simulated case
// study.  Absolute numbers are scaled (our run is millions rather than
// billions of instructions), but the shapes the paper reports — who
// ranks where, which ratios are extreme, which kernel owns which phase —
// must hold.
package repro_test

import (
	"testing"

	"tquad/internal/flatprof"
	"tquad/internal/quad"
	"tquad/internal/study"
	"tquad/internal/wfs"
)

// sharedStudy caches one Study across tests, and sharedSched a live
// scheduler over it that memoises runs across tests (profile runs are
// seconds each).
var (
	sharedStudy *study.Study
	sharedSched *study.Scheduler
)

func getStudy(t *testing.T) (*study.Study, *study.Scheduler) {
	t.Helper()
	if sharedStudy == nil {
		s, err := study.New(wfs.Small())
		if err != nil {
			t.Fatalf("study: %v", err)
		}
		sharedStudy = s
		sharedSched = study.NewScheduler(s, 0)
		sharedSched.SetReplay(false)
	}
	return sharedStudy, sharedSched
}

// runShared executes one configuration on the shared scheduler.
func runShared(t *testing.T, cfg study.RunConfig) *study.RunResult {
	t.Helper()
	_, sch := getStudy(t)
	res, err := sch.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Key(), err)
	}
	return res
}

func mustRow(t *testing.T, p *flatprof.Profile, name string) flatprof.Row {
	t.Helper()
	r, ok := p.Row(name)
	if !ok {
		t.Fatalf("kernel %s missing from flat profile", name)
	}
	return r
}

// TestPaperObservations_TableI checks the gprof flat-profile shape:
// wav_store and fft1d lead, call counts follow the program structure, and
// highly-called kernels have tiny per-call times.
func TestPaperObservations_TableI(t *testing.T) {
	s, _ := getStudy(t)
	p := runShared(t, study.RunConfig{Kind: study.RunFlat}).Flat
	cfg := s.W.Cfg

	if got := p.Rank("wav_store"); got != 1 {
		t.Errorf("wav_store rank = %d, want 1 (paper: 31.91%% of time)", got)
	}
	if got := p.Rank("fft1d"); got < 1 || got > 3 {
		t.Errorf("fft1d rank = %d, want top-3 (paper: rank 2)", got)
	}
	ws := mustRow(t, p, "wav_store")
	ff := mustRow(t, p, "fft1d")
	if sum := ws.Pct + ff.Pct; sum < 35 {
		t.Errorf("wav_store+fft1d = %.1f%% of time, want >= 35%% (paper: ~60%%)", sum)
	}

	// Call counts are structural, so they are exact.
	wantCalls := map[string]uint64{
		"wav_store":              1,
		"wav_load":               1,
		"ldint":                  1,
		"ffw":                    2,
		"fft1d":                  uint64(2*cfg.Frames + 2),
		"perm":                   uint64(2*cfg.Frames + 2),
		"bitrev":                 uint64((2*cfg.Frames + 2) * cfg.FFTSize),
		"cadd":                   uint64(cfg.Frames * cfg.FFTSize),
		"cmult":                  uint64(cfg.Frames * cfg.FFTSize),
		"DelayLine_processChunk": uint64(cfg.Frames),
		"AudioIo_getFrames":      uint64(cfg.Frames),
		"AudioIo_setFrames":      uint64(cfg.Frames),
		"Filter_process":         uint64(cfg.Frames),
		"Filter_process_pre_":    uint64(cfg.Frames),
		"zeroCplxVec":            uint64(cfg.Frames),
		"zeroRealVec":            uint64(cfg.Frames * cfg.Speakers),
		"r2c":                    uint64(cfg.Frames),
		"c2r":                    uint64(cfg.Frames),
	}
	for name, want := range wantCalls {
		if got := mustRow(t, p, name).Calls; got != want {
			t.Errorf("%s calls = %d, want %d", name, got, want)
		}
	}

	// "The highly-called kernels have often quite a simple body."
	for _, name := range []string{"bitrev", "cadd", "cmult"} {
		if r := mustRow(t, p, name); r.SelfMsCall > 0.01 {
			t.Errorf("%s self ms/call = %.4f, want < 0.01", name, r.SelfMsCall)
		}
	}
	// wav_store: one call, large span ("the kernel must be active in a
	// large time span").
	if ws.SelfMsCall < 10*mustRow(t, p, "fft1d").SelfMsCall {
		t.Errorf("wav_store ms/call (%.3f) not dominant over fft1d's (%.4f)",
			ws.SelfMsCall, ff.SelfMsCall)
	}
}

func kstats(t *testing.T, r *quad.Report, name string) quad.KernelStats {
	t.Helper()
	k, ok := r.Kernel(name)
	if !ok {
		t.Fatalf("kernel %s missing from QUAD report", name)
	}
	return k
}

// TestPaperObservations_TableII checks the QUAD producer/consumer shapes:
// the AudioIo pair's distinct-address signature, the zero* kernels'
// extreme stack ratios, fft1d's identical UnMA across modes, and
// wav_store's small-output-buffer funnel.
func TestPaperObservations_TableII(t *testing.T) {
	s, _ := getStudy(t)
	excl := runShared(t, study.RunConfig{Kind: study.RunQUAD, IncludeStack: false}).Quad
	incl := runShared(t, study.RunConfig{Kind: study.RunQUAD, IncludeStack: true}).Quad
	cfg := s.W.Cfg

	// AudioIo_setFrames: "the data transfer is carried out via separate
	// memory addresses ... the number of bytes and UnMAs are almost
	// identical" for writes.
	sf := kstats(t, excl, "AudioIo_setFrames")
	if sf.Out != sf.OutUnMA {
		t.Errorf("AudioIo_setFrames OUT=%d != OUT UnMA=%d (paper: almost identical)", sf.Out, sf.OutUnMA)
	}
	if want := uint64(cfg.TotalOutputSamples() * 8); sf.OutUnMA != want {
		t.Errorf("AudioIo_setFrames OUT UnMA = %d, want %d (every output address exactly once)", sf.OutUnMA, want)
	}
	// AudioIo_getFrames reads every source address exactly once.
	gf := kstats(t, excl, "AudioIo_getFrames")
	if gf.In != gf.InUnMA {
		t.Errorf("AudioIo_getFrames IN=%d != IN UnMA=%d", gf.In, gf.InUnMA)
	}

	// zeroRealVec / zeroCplxVec: stack-inclusion ratios "greater than
	// 750 and 300" in the paper; ours must be extreme too.
	for _, name := range []string{"zeroRealVec", "zeroCplxVec"} {
		e := kstats(t, excl, name)
		i := kstats(t, incl, name)
		if e.In == 0 {
			t.Fatalf("%s stack-excluded IN is zero", name)
		}
		if ratio := float64(i.In) / float64(e.In); ratio < 50 {
			t.Errorf("%s stack incl/excl IN ratio = %.1f, want >= 50", name, ratio)
		}
	}

	// fft1d: "the UnMAs reported in the two cases remain identical"
	// (its scratch is stack-resident), with a clear stack-traffic
	// surplus when included.
	fe := kstats(t, excl, "fft1d")
	fi := kstats(t, incl, "fft1d")
	// The stack-resident twiddle table is "rather nominal" next to the
	// signal buffer (scaled: our FFT is 256-point, not 2048-point, so
	// the scratch is proportionally larger than the paper's).
	if fi.InUnMA > 2*fe.InUnMA {
		t.Errorf("fft1d IN UnMA incl=%d vs excl=%d: want nearly identical", fi.InUnMA, fe.InUnMA)
	}
	if ratio := float64(fi.In) / float64(fe.In); ratio < 1.2 {
		t.Errorf("fft1d stack incl/excl IN ratio = %.2f, want >= 1.2", ratio)
	}

	// DelayLine_processChunk accumulates through stack scratch.
	de := kstats(t, excl, "DelayLine_processChunk")
	di := kstats(t, incl, "DelayLine_processChunk")
	if ratio := float64(di.In) / float64(de.In); ratio < 2 {
		t.Errorf("DelayLine stack incl/excl IN ratio = %.2f, want >= 2 (paper: ~9)", ratio)
	}

	// Filter_process_pre_ keeps its window in registers: "almost
	// identical amount of memory bandwidth usage in the cases of
	// including and excluding the stack area".
	pe := kstats(t, excl, "Filter_process_pre_")
	pi := kstats(t, incl, "Filter_process_pre_")
	if ratio := float64(pi.In) / float64(pe.In); ratio > 1.25 {
		t.Errorf("Filter_process_pre_ incl/excl IN ratio = %.2f, want <= 1.25", ratio)
	}

	// wav_store: huge distinct read set (it fetches the whole output
	// matrix) against a tiny reused output buffer.
	we := kstats(t, excl, "wav_store")
	wi := kstats(t, incl, "wav_store")
	if we.InUnMA < uint64(cfg.TotalOutputSamples()*8) {
		t.Errorf("wav_store IN UnMA = %d, want >= %d (fetches every output address)",
			we.InUnMA, cfg.TotalOutputSamples()*8)
	}
	if we.OutUnMA > 2048 {
		t.Errorf("wav_store OUT UnMA = %d, want small (reused staging buffer)", we.OutUnMA)
	}
	if ratio := float64(wi.In) / float64(we.In); ratio < 1.5 || ratio > 6 {
		t.Errorf("wav_store incl/excl IN ratio = %.2f, want ~2-4 (paper: about half from stack)", ratio)
	}

	// The QDU graph must trace AudioIo_setFrames's data back to
	// DelayLine_processChunk and forward to wav_store, as the paper
	// does.
	var toStore, fromDelay bool
	for _, b := range incl.Bindings {
		if b.Producer == "AudioIo_setFrames" && b.Consumer == "wav_store" && b.Bytes > 0 {
			toStore = true
		}
		if b.Producer == "DelayLine_processChunk" && b.Consumer == "AudioIo_setFrames" && b.Bytes > 0 {
			fromDelay = true
		}
	}
	if !toStore || !fromDelay {
		t.Errorf("QDU chain DelayLine->setFrames->wav_store incomplete (fromDelay=%v toStore=%v)", fromDelay, toStore)
	}
}

// TestPaperObservations_TableIII checks the QUAD-instrumented re-ranking:
// kernels dominated by non-local traffic gain share, stack-bound kernels
// collapse.
func TestPaperObservations_TableIII(t *testing.T) {
	base := runShared(t, study.RunConfig{Kind: study.RunFlat}).Flat
	instr := runShared(t, study.RunConfig{Kind: study.RunInstrFlat}).Flat
	rows := flatprof.Compare(base, instr, wfs.TopTenKernels())
	byName := make(map[string]flatprof.CompareRow, len(rows))
	for _, r := range rows {
		byName[r.Name] = r
	}

	// "a substantial increase in the contribution of AudioIo_setFrames".
	sf := byName["AudioIo_setFrames"]
	if sf.Trend != flatprof.TrendUp && sf.Trend != flatprof.TrendStrongUp {
		t.Errorf("AudioIo_setFrames trend = %v, want up (paper: 4%% -> 11%%)", sf.Trend)
	}
	if baseRank, newRank := base.Rank("AudioIo_setFrames"), sf.Rank; newRank >= baseRank {
		t.Errorf("AudioIo_setFrames rank %d -> %d, want improvement (paper: 6 -> 3)", baseRank, newRank)
	}
	// "bitrev shows a severe drop on the execution time contribution."
	br := byName["bitrev"]
	if br.Trend != flatprof.TrendStrongDown {
		t.Errorf("bitrev trend = %v, want strong down (paper: 8.19 -> 0.42)", br.Trend)
	}
	// zeroRealVec drops too (stack-only traffic is discarded cheaply).
	zr := byName["zeroRealVec"]
	if zr.Trend != flatprof.TrendDown && zr.Trend != flatprof.TrendStrongDown {
		t.Errorf("zeroRealVec trend = %v, want down", zr.Trend)
	}
	// wav_store and fft1d stay at the top.
	if r := byName["wav_store"].Rank; r > 3 {
		t.Errorf("wav_store instrumented rank = %d, want top-3 (paper: 1)", r)
	}
	if r := byName["fft1d"].Rank; r > 3 {
		t.Errorf("fft1d instrumented rank = %d, want top-3 (paper: 2)", r)
	}
}

// TestPaperObservations_Figures checks the temporal shapes of Figures 6
// and 7: wav_store silent early and exclusive late, write traffic lighter
// than read traffic, and AudioIo_setFrames peaking far above everyone
// else.
func TestPaperObservations_Figures(t *testing.T) {
	_, sch := getStudy(t)
	iv, err := sch.SliceForCount(64)
	if err != nil {
		t.Fatalf("slice: %v", err)
	}
	prof := runShared(t, study.RunConfig{Kind: study.RunTQUAD, SliceInterval: iv, IncludeStack: true}).Temporal

	ws, ok := prof.Kernel("wav_store")
	if !ok {
		t.Fatalf("wav_store missing")
	}
	// "It is silent in the first half and it is the only kernel active
	// in the second half."  Scaled bound: silent through the first 55%.
	if ws.FirstSlice < prof.NumSlices*55/100 {
		t.Errorf("wav_store first active slice = %d of %d, want silent through the first 55%%",
			ws.FirstSlice, prof.NumSlices)
	}
	if ws.LastSlice < prof.NumSlices-2 {
		t.Errorf("wav_store last active slice = %d of %d, want active to the end", ws.LastSlice, prof.NumSlices)
	}
	// Tail exclusivity among the paper's kernels.
	kernelSet := make(map[string]bool)
	for _, k := range wfs.KernelNames() {
		kernelSet[k] = true
	}
	for slice := prof.NumSlices * 9 / 10; slice < prof.NumSlices; slice++ {
		for _, name := range prof.ActiveSet(slice) {
			if kernelSet[name] && name != "wav_store" {
				t.Fatalf("slice %d/%d: kernel %s active in the wav_store-only tail", slice, prof.NumSlices, name)
			}
		}
	}

	// "Memory write accesses have almost similar figures but the
	// intensity of the data transfers is less by at least a factor of
	// two in most kernels."
	lighter := 0
	counted := 0
	for _, k := range prof.Kernels {
		if !kernelSet[k.Name] || k.TotalReadIncl == 0 {
			continue
		}
		counted++
		if k.TotalWriteIncl*2 <= k.TotalReadIncl*3 { // writes <= 1.5x reads
			lighter++
		}
	}
	if counted == 0 || lighter*3 < counted*2 {
		t.Errorf("writes lighter than reads for %d/%d kernels, want a clear majority", lighter, counted)
	}

	// AudioIo_setFrames peaks far above every other kernel
	// (paper: >50 B/instr vs at most 3.4 for all others).
	sf, ok := prof.Kernel("AudioIo_setFrames")
	if !ok {
		t.Fatalf("AudioIo_setFrames missing")
	}
	sfMax := sf.Stats(true, prof.SliceInterval).MaxRW
	for _, k := range prof.Kernels {
		if !kernelSet[k.Name] || k.Name == "AudioIo_setFrames" {
			continue
		}
		if m := k.Stats(true, prof.SliceInterval).MaxRW; m >= sfMax {
			t.Errorf("kernel %s max bandwidth %.3f B/instr >= AudioIo_setFrames's %.3f", k.Name, m, sfMax)
		}
	}
}

// TestPaperObservations_TableIV checks phase identification: five phases
// in the paper's order with the right occupants.
func TestPaperObservations_TableIV(t *testing.T) {
	s, _ := getStudy(t)
	prof := runShared(t, study.RunConfig{Kind: study.RunTQUAD, SliceInterval: 5000, IncludeStack: true}).Temporal
	phases := s.PhasesFromProfile(prof)
	if len(phases) != 5 {
		for i, ph := range phases {
			t.Logf("phase %d [%d,%d): %v", i+1, ph.Start, ph.End, ph.KernelNames())
		}
		t.Fatalf("detected %d phases, want 5 (initialization, wave load, wave propagation, WFS main, wave save)", len(phases))
	}
	has := func(ph int, name string) bool {
		for _, k := range phases[ph].Kernels {
			if k.Name == name {
				return true
			}
		}
		return false
	}
	// Phase 1: initialization (ffw, ldint).
	if !has(0, "ffw") || !has(0, "ldint") {
		t.Errorf("phase 1 %v should contain ffw and ldint", phases[0].KernelNames())
	}
	// Phase 2: wave load.
	if !has(1, "wav_load") {
		t.Errorf("phase 2 %v should contain wav_load", phases[1].KernelNames())
	}
	// Phase 3: wave propagation.
	for _, k := range []string{"calculateGainPQ", "vsmult2d", "PrimarySource_deriveTP"} {
		if !has(2, k) {
			t.Errorf("phase 3 %v should contain %s", phases[2].KernelNames(), k)
		}
		if has(3, k) {
			t.Errorf("phase 4 should not contain propagation kernel %s", k)
		}
	}
	// Phase 4: WFS main processing, "fourteen kernels are active".
	if n := len(phases[3].Kernels); n < 10 {
		t.Errorf("phase 4 has %d kernels, want >= 10 (paper: 14)", n)
	}
	for _, k := range []string{"fft1d", "DelayLine_processChunk", "AudioIo_setFrames", "cadd", "cmult"} {
		if !has(3, k) {
			t.Errorf("phase 4 %v should contain %s", phases[3].KernelNames(), k)
		}
	}
	// Phase 5: wave save — wav_store only there, spanning a large tail.
	if !has(4, "wav_store") {
		t.Fatalf("phase 5 %v should contain wav_store", phases[4].KernelNames())
	}
	for ph := 0; ph < 4; ph++ {
		if has(ph, "wav_store") {
			t.Errorf("wav_store must be exclusive to the final phase, found in phase %d", ph+1)
		}
	}
	if span := phases[4].Span(); span < prof.NumSlices/4 {
		t.Errorf("wave-save phase spans %d of %d slices, want >= 25%% (paper: 53%%)", span, prof.NumSlices)
	}
	// "this phase [WFS main] has the biggest share of the whole memory
	// bandwidth traffic."
	for i, ph := range phases {
		if i != 3 && ph.AggregateMBW >= phases[3].AggregateMBW {
			t.Errorf("phase %d aggregate MBW %.3f >= WFS-main phase's %.3f", i+1, ph.AggregateMBW, phases[3].AggregateMBW)
		}
	}
	// Phases are ordered and non-overlapping by construction; verify.
	for i := 1; i < len(phases); i++ {
		if phases[i].Start != phases[i-1].End {
			t.Errorf("phase %d starts at %d, previous ends at %d", i+1, phases[i].Start, phases[i-1].End)
		}
	}
}

// TestPaperObservations_Slowdown checks the Section V.A overhead study:
// instrumentation costs tens of x, more with stack inclusion and finer
// slices.
func TestPaperObservations_Slowdown(t *testing.T) {
	_, sch := getStudy(t)
	native, err := sch.NativeICount()
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	fine, coarse := native/1000, native/16
	rows, err := sch.Slowdown([]uint64{fine, coarse})
	if err != nil {
		t.Fatalf("slowdown: %v", err)
	}
	get := func(iv uint64, incl bool) float64 {
		for _, r := range rows {
			if r.Tool == "tQUAD" && r.SliceInterval == iv && r.IncludeStack == incl {
				return r.Slowdown
			}
		}
		t.Fatalf("missing slowdown row iv=%d incl=%v", iv, incl)
		return 0
	}
	for _, iv := range []uint64{fine, coarse} {
		for _, incl := range []bool{true, false} {
			sd := get(iv, incl)
			if sd < 10 || sd > 150 {
				t.Errorf("slowdown(iv=%d, incl=%v) = %.1fx, want within [10,150] (paper: 37.2-68.95)", iv, incl, sd)
			}
		}
	}
	if get(fine, true) <= get(coarse, true) {
		t.Errorf("finer slices should cost more: fine %.1fx <= coarse %.1fx", get(fine, true), get(coarse, true))
	}
	if get(fine, true) <= get(fine, false) {
		t.Errorf("stack inclusion should cost more: incl %.1fx <= excl %.1fx", get(fine, true), get(fine, false))
	}
}

// TestCrossToolConsistency: QUAD's byte totals and tQUAD's temporal sums
// observe the same dynamic instruction stream, so they must agree
// exactly.
func TestCrossToolConsistency(t *testing.T) {
	incl := runShared(t, study.RunConfig{Kind: study.RunQUAD, IncludeStack: true}).Quad
	prof := runShared(t, study.RunConfig{Kind: study.RunTQUAD, SliceInterval: 50_000, IncludeStack: true}).Temporal
	for _, name := range wfs.KernelNames() {
		q, okQ := incl.Kernel(name)
		k, okT := prof.Kernel(name)
		if !okQ || !okT {
			t.Errorf("kernel %s missing (quad=%v tquad=%v)", name, okQ, okT)
			continue
		}
		if q.In != k.TotalReadIncl {
			t.Errorf("%s: QUAD IN=%d != tQUAD reads=%d", name, q.In, k.TotalReadIncl)
		}
	}
}
