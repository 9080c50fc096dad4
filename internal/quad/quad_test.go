package quad_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tquad/internal/etrace"
	"tquad/internal/glibc"
	"tquad/internal/gos"
	"tquad/internal/hl"
	"tquad/internal/image"
	"tquad/internal/pin"
	"tquad/internal/quad"
	"tquad/internal/vm"
)

// buildProducerConsumer links a program where `producer` writes 64 words
// to a global buffer and `consumer` reads them back; `stacker` works only
// on its own frame.
func buildProducerConsumer(t *testing.T) *vm.Machine {
	t.Helper()
	b := hl.NewBuilder("t", image.Main)
	g := b.Global("buf", 64*8)
	b.Func("producer", 0, func(f *hl.Fn) {
		p := f.Local()
		f.Set(p, f.GAddr(g))
		i := f.Local()
		f.ForRangeI(i, 0, 64, func() {
			f.St8(f.Add(p, f.ShlI(i, 3)), 0, i)
		})
		f.Ret0()
	})
	b.Func("consumer", 0, func(f *hl.Fn) {
		p := f.Local()
		f.Set(p, f.GAddr(g))
		acc := f.Local()
		f.SetI(acc, 0)
		i := f.Local()
		f.ForRangeI(i, 0, 64, func() {
			f.Set(acc, f.Add(acc, f.Ld8(f.Add(p, f.ShlI(i, 3)), 0)))
		})
		f.Ret(acc)
	})
	b.Func("stacker", 0, func(f *hl.Fn) {
		off := f.Alloca(32 * 8)
		p := f.Local()
		f.Set(p, f.FrameAddr(off))
		i := f.Local()
		f.ForRangeI(i, 0, 32, func() {
			f.St8(f.Add(p, f.ShlI(i, 3)), 0, i)
		})
		acc := f.Local()
		f.SetI(acc, 0)
		f.ForRangeI(i, 0, 32, func() {
			f.Set(acc, f.Add(acc, f.Ld8(f.Add(p, f.ShlI(i, 3)), 0)))
		})
		f.Ret(acc)
	})
	b.Func("main", 0, func(f *hl.Fn) {
		f.CallV("producer")
		f.CallV("stacker")
		f.Ret(f.Call("consumer"))
	})
	prog, err := hl.Link(b, glibc.Builder())
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New()
	m.SetSyscallHandler(gos.New())
	for _, img := range prog.Images() {
		m.LoadImage(img)
	}
	m.Reset(prog.EntryPC)
	return m
}

func runQUAD(t *testing.T, includeStack bool) *quad.Report {
	t.Helper()
	m := buildProducerConsumer(t)
	e := pin.NewEngine(m)
	tool := quad.Attach(e, quad.Options{IncludeStack: includeStack})
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if m.ExitCode != 64*63/2 {
		t.Fatalf("guest produced wrong result %d", m.ExitCode)
	}
	return tool.Report()
}

func TestProducerConsumerBinding(t *testing.T) {
	rep := runQUAD(t, false)
	var found *quad.Binding
	for i := range rep.Bindings {
		b := &rep.Bindings[i]
		if b.Producer == "producer" && b.Consumer == "consumer" {
			found = b
		}
	}
	if found == nil {
		t.Fatalf("no producer->consumer binding: %+v", rep.Bindings)
	}
	if found.Bytes != 64*8 {
		t.Fatalf("binding bytes = %d, want %d", found.Bytes, 64*8)
	}
}

func TestInOutAccounting(t *testing.T) {
	rep := runQUAD(t, false)
	prod, _ := rep.Kernel("producer")
	cons, _ := rep.Kernel("consumer")
	if prod.OutUnMA != 64*8 {
		t.Errorf("producer OUT UnMA = %d, want %d", prod.OutUnMA, 64*8)
	}
	if prod.Out != 64*8 {
		t.Errorf("producer OUT = %d (bytes read by others), want %d", prod.Out, 64*8)
	}
	if cons.In != 64*8 || cons.InUnMA != 64*8 {
		t.Errorf("consumer IN/UnMA = %d/%d, want 512/512", cons.In, cons.InUnMA)
	}
}

// TestOutEqualsBindingSums: OUT(k) must equal the total bytes flowing
// along k's outgoing QDU edges — the core accounting invariant.
func TestOutEqualsBindingSums(t *testing.T) {
	for _, incl := range []bool{false, true} {
		rep := runQUAD(t, incl)
		sums := make(map[string]uint64)
		for _, b := range rep.Bindings {
			if b.Producer != "" {
				sums[b.Producer] += b.Bytes
			}
		}
		for _, k := range rep.Kernels {
			if k.Out != sums[k.Name] {
				t.Errorf("incl=%v %s: OUT=%d but binding sum=%d", incl, k.Name, k.Out, sums[k.Name])
			}
		}
	}
}

func TestStackExclusionDropsStacker(t *testing.T) {
	excl := runQUAD(t, false)
	incl := runQUAD(t, true)
	se, okE := excl.Kernel("stacker")
	si, okI := incl.Kernel("stacker")
	if !okI {
		t.Fatalf("stacker missing from stack-inclusive report")
	}
	// All of stacker's data traffic is frame-local: excluded it should
	// be (nearly) invisible, included it reads+writes its 32 words.
	if si.In < 32*8 || si.OutUnMA < 32*8 {
		t.Errorf("stack-inclusive stacker = %+v, want frame traffic visible", si)
	}
	if okE && se.In > 16 {
		t.Errorf("stack-exclusive stacker IN = %d, want ~0", se.In)
	}
}

func TestProducerSelfBindingOnRewrite(t *testing.T) {
	// Data read by the same kernel that wrote it forms a self edge
	// (wav_store's "used internally" pattern).
	b := hl.NewBuilder("t", image.Main)
	g := b.Global("buf", 8*8)
	b.Func("selfish", 0, func(f *hl.Fn) {
		p := f.Local()
		f.Set(p, f.GAddr(g))
		i := f.Local()
		f.ForRangeI(i, 0, 8, func() {
			f.St8(f.Add(p, f.ShlI(i, 3)), 0, i)
		})
		acc := f.Local()
		f.SetI(acc, 0)
		f.ForRangeI(i, 0, 8, func() {
			f.Set(acc, f.Add(acc, f.Ld8(f.Add(p, f.ShlI(i, 3)), 0)))
		})
		f.Ret(acc)
	})
	b.Func("main", 0, func(f *hl.Fn) { f.Ret(f.Call("selfish")) })
	prog, err := hl.Link(b, glibc.Builder())
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New()
	m.SetSyscallHandler(gos.New())
	for _, img := range prog.Images() {
		m.LoadImage(img)
	}
	m.Reset(prog.EntryPC)
	e := pin.NewEngine(m)
	tool := quad.Attach(e, quad.Options{})
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	rep := tool.Report()
	for _, bind := range rep.Bindings {
		if bind.Producer == "selfish" && bind.Consumer == "selfish" && bind.Bytes == 64 {
			return
		}
	}
	t.Fatalf("self binding missing: %+v", rep.Bindings)
}

func TestQDUGraphDOT(t *testing.T) {
	rep := runQUAD(t, false)
	dot := rep.QDUGraphDOT(1)
	for _, want := range []string{"digraph QDU", `"producer" -> "consumer"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	// A huge threshold removes all edges but keeps a valid graph.
	sparse := rep.QDUGraphDOT(1 << 40)
	if !strings.Contains(sparse, "digraph QDU") || strings.Contains(sparse, "->") {
		t.Errorf("thresholded DOT wrong:\n%s", sparse)
	}
}

func TestOverheadCharged(t *testing.T) {
	m := buildProducerConsumer(t)
	e := pin.NewEngine(m)
	quad.Attach(e, quad.Options{})
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Overhead == 0 {
		t.Fatalf("QUAD charged no analysis overhead")
	}
	if m.Time() <= m.ICount {
		t.Fatalf("Time() not inflated")
	}
}

// The ground-truth guest's geometry.  The buffer spans more than two
// pages, so wherever the linker places it, its accesses straddle at
// least two page boundaries.  producer writes gtWords unaligned 8-byte
// words at offset 3, stride 8; patcher then overwrites gtPatch2 2-byte
// and gtPatch1 1-byte cells starting at gtPatchAt; consumer reads the
// whole buffer back as gtGroups groups of a 1-, 2-, 4- and 8-byte load.
const (
	gtGroups  = 551
	gtBuf     = 15 * gtGroups // 8265 bytes ≥ 2 pages + 64
	gtWords   = (gtBuf - 3) / 8
	gtPatchAt = 4090
	gtPatch2  = 16
	gtPatch1  = 11
	gtPatched = 2*gtPatch2 + gtPatch1
)

// buildGroundTruth links the three-kernel ground-truth guest.
func buildGroundTruth(t *testing.T) *vm.Machine {
	t.Helper()
	if gtPatchAt < 3 || gtPatchAt+gtPatched > 3+8*gtWords {
		t.Fatal("patched cells must lie inside the produced words")
	}
	b := hl.NewBuilder("t", image.Main)
	g := b.Global("buf", gtBuf)
	b.Func("producer", 0, func(f *hl.Fn) {
		p, i := f.Local(), f.Local()
		f.Set(p, f.GAddr(g))
		f.ForRangeI(i, 0, gtWords, func() {
			f.St8(f.Add(p, f.ShlI(i, 3)), 3, i)
		})
		f.Ret0()
	})
	b.Func("patcher", 0, func(f *hl.Fn) {
		p, i := f.Local(), f.Local()
		f.Set(p, f.GAddr(g))
		f.ForRangeI(i, 0, gtPatch2, func() {
			f.St2(f.Add(p, f.ShlI(i, 1)), gtPatchAt, i)
		})
		f.ForRangeI(i, 0, gtPatch1, func() {
			f.St1(f.Add(p, i), gtPatchAt+2*gtPatch2, i)
		})
		f.Ret0()
	})
	b.Func("consumer", 0, func(f *hl.Fn) {
		p, q, i, acc := f.Local(), f.Local(), f.Local(), f.Local()
		f.Set(p, f.GAddr(g))
		f.SetI(acc, 0)
		f.ForRangeI(i, 0, gtGroups, func() {
			f.Set(q, f.Add(p, f.MulI(i, 15)))
			f.Set(acc, f.Add(acc, f.Ld1(q, 0)))
			f.Set(acc, f.Add(acc, f.Ld2(q, 1)))
			f.Set(acc, f.Add(acc, f.Ld4(q, 3)))
			f.Set(acc, f.Add(acc, f.Ld8(q, 7)))
		})
		f.Ret(acc)
	})
	b.Func("main", 0, func(f *hl.Fn) {
		f.CallV("producer")
		f.CallV("patcher")
		f.Ret(f.Call("consumer"))
	})
	prog, err := hl.Link(b, glibc.Builder())
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New()
	m.SetSyscallHandler(gos.New())
	for _, img := range prog.Images() {
		m.LoadImage(img)
	}
	m.Reset(prog.EntryPC)
	return m
}

// TestGroundTruthClosedForm checks QUAD against byte counts known in
// closed form, not against another run of the tool: every byte consumer
// reads was last written by producer, by patcher, or by no one, and each
// kernel's IN/OUT/UnMA follow from the buffer geometry.  Stack traffic
// is excluded, as in Table II's (ex) columns.  The counts must hold
// live and again replayed from a recording.
func TestGroundTruthClosedForm(t *testing.T) {
	wantKernels := map[string]quad.KernelStats{
		"producer": {Name: "producer", Out: 8*gtWords - gtPatched, OutUnMA: 8 * gtWords},
		"patcher":  {Name: "patcher", Out: gtPatched, OutUnMA: gtPatched},
		"consumer": {Name: "consumer", In: gtBuf, InUnMA: gtBuf},
	}
	wantInto := map[string]uint64{ // producer -> bytes consumer read from it
		"":         gtBuf - 8*gtWords,
		"producer": 8*gtWords - gtPatched,
		"patcher":  gtPatched,
	}
	check := func(t *testing.T, rep *quad.Report) {
		t.Helper()
		for name, want := range wantKernels {
			if got, _ := rep.Kernel(name); got != want {
				t.Errorf("%s = %+v, want %+v", name, got, want)
			}
		}
		into := make(map[string]uint64)
		for _, b := range rep.Bindings {
			if b.Consumer == "consumer" {
				into[b.Producer] += b.Bytes
			}
		}
		if !reflect.DeepEqual(into, wantInto) {
			t.Errorf("bytes consumer read, by producer = %v, want %v", into, wantInto)
		}
	}
	for _, excludeLibs := range []bool{false, true} {
		opts := quad.Options{ExcludeLibs: excludeLibs}
		t.Run(fmt.Sprintf("live/excludeLibs=%v", excludeLibs), func(t *testing.T) {
			m := buildGroundTruth(t)
			tool := quad.Attach(pin.NewEngine(m), opts)
			if err := m.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
			check(t, tool.Report())
		})
		t.Run(fmt.Sprintf("replay/excludeLibs=%v", excludeLibs), func(t *testing.T) {
			m := buildGroundTruth(t)
			var buf bytes.Buffer
			rec, err := etrace.Record(pin.NewEngine(m), &buf, etrace.RecordOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
			if err := rec.Finish(); err != nil {
				t.Fatal(err)
			}
			pr, err := etrace.NewParallelReplayer(bytes.NewReader(buf.Bytes()), int64(buf.Len()), etrace.ParallelOptions{Jobs: 1})
			if err != nil {
				t.Fatal(err)
			}
			tool := quad.Attach(pr.NewConsumer(), opts)
			if err := pr.Replay(); err != nil {
				t.Fatal(err)
			}
			check(t, tool.Report())
		})
	}
}
