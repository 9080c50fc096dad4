package pin_test

import (
	"testing"

	"tquad/internal/image"
	"tquad/internal/pin"
	"tquad/internal/vm"
	"tquad/internal/wfs"
)

// attachBBLCounter installs a trace-granularity instruction counter: one
// analysis call per basic-block execution, crediting the block's length.
func attachBBLCounter(e *pin.Engine) *uint64 {
	count := new(uint64)
	e.TRACEAddInstrumentFunction(func(tr *pin.TRACE) {
		n := uint64(tr.NumInstrs())
		tr.InsertCall(func(ctx *pin.Context) {
			*count += n
		})
	})
	return count
}

// TestBBLCountingIsExact: since calls, syscalls and all control
// transfers terminate basic blocks, an entered block always executes to
// completion — so per-block counting must reproduce the machine's
// instruction counter exactly, on the block engine and on the reference
// stepper.  This cross-validates the CFG construction against both
// execution engines over the whole small WFS application.
func TestBBLCountingIsExact(t *testing.T) {
	w, err := wfs.NewWorkload(wfs.Small())
	if err != nil {
		t.Fatal(err)
	}
	for _, blockEngine := range []bool{true, false} {
		m, _ := w.NewMachine()
		m.BlockEngine = blockEngine
		e := pin.NewEngine(m)
		count := attachBBLCounter(e)
		if err := m.Run(wfs.MaxInstr); err != nil {
			t.Fatal(err)
		}
		if *count != m.ICount {
			t.Fatalf("block engine %v: BBL-counted %d instructions, machine executed %d (diff %d)",
				blockEngine, *count, m.ICount, int64(*count)-int64(m.ICount))
		}
	}
}

// TestBBLAndInstructionCountersAgree: counting per instruction and per
// block in the same run must agree, while the block counter fires far
// fewer analysis calls (the whole point of trace granularity).
func TestBBLAndInstructionCountersAgree(t *testing.T) {
	w, err := wfs.NewWorkload(wfs.Small())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := w.NewMachine()
	e := pin.NewEngine(m)
	bbl := attachBBLCounter(e)
	var perIns, insCalls uint64
	e.INSAddInstrumentFunction(func(ins *pin.INS) {
		ins.InsertCall(func(ctx *pin.Context) {
			perIns++
			insCalls++
		})
	})
	if err := m.Run(wfs.MaxInstr); err != nil {
		t.Fatal(err)
	}
	if *bbl != perIns {
		t.Fatalf("BBL count %d != per-instruction count %d", *bbl, perIns)
	}
	// Block-level instrumentation must be much cheaper: the WFS code
	// averages several instructions per block.
	var bblCalls uint64
	e2run := func() {
		m2, _ := w.NewMachine()
		e2 := pin.NewEngine(m2)
		e2.TRACEAddInstrumentFunction(func(tr *pin.TRACE) {
			tr.InsertCall(func(ctx *pin.Context) { bblCalls++ })
		})
		if err := m2.Run(wfs.MaxInstr); err != nil {
			t.Fatal(err)
		}
	}
	e2run()
	if bblCalls*2 >= insCalls {
		t.Fatalf("block instrumentation not cheaper: %d block calls vs %d instruction calls",
			bblCalls, insCalls)
	}
}

// TestTraceComposesWithOtherTools: trace hooks must not perturb the
// machine's results.
func TestTraceComposesWithOtherTools(t *testing.T) {
	w, err := wfs.NewWorkload(wfs.Small())
	if err != nil {
		t.Fatal(err)
	}
	// Baseline.
	m1, osys1 := w.NewMachine()
	if err := m1.Run(wfs.MaxInstr); err != nil {
		t.Fatal(err)
	}
	out1, _ := osys1.File(w.Cfg.OutputFile)
	// Instrumented.
	m2, osys2 := w.NewMachine()
	e := pin.NewEngine(m2)
	attachBBLCounter(e)
	if err := m2.Run(wfs.MaxInstr); err != nil {
		t.Fatal(err)
	}
	out2, _ := osys2.File(w.Cfg.OutputFile)
	if m1.ICount != m2.ICount {
		t.Fatalf("instrumentation changed the instruction count: %d vs %d", m1.ICount, m2.ICount)
	}
	if string(out1) != string(out2) {
		t.Fatalf("instrumentation changed the program output")
	}
	_ = vm.EvPlain // keep the vm import honest if assertions shrink
}

// TestRoutineCodeRejectsCorruptRanges: a symbol table whose claimed
// routine span lies outside the code segment (a truncated or hostile
// image) must be reported invalid, not sliced out of bounds.
func TestRoutineCodeRejectsCorruptRanges(t *testing.T) {
	w, err := wfs.NewWorkload(wfs.Small())
	if err != nil {
		t.Fatal(err)
	}
	img := w.Prog.Main
	rts := img.Routines()
	r := rts[len(rts)-1]

	if code, valid := pin.RoutineCode(img, r); !valid {
		t.Fatal("intact routine reported invalid")
	} else if want := r.End - r.Entry; uint64(len(code)) != want {
		t.Fatalf("routine code length %d, want %d", len(code), want)
	}
	if _, valid := pin.RoutineCode(nil, r); valid {
		t.Error("nil image reported valid")
	}
	if _, valid := pin.RoutineCode(img, image.Routine{Name: "low", Entry: img.Base - 8, End: img.Base}); valid && img.Base >= 8 {
		t.Error("routine below the code base reported valid")
	}
	if _, valid := pin.RoutineCode(img, image.Routine{Name: "inverted", Entry: r.End, End: r.Entry}); valid {
		t.Error("inverted routine range reported valid")
	}
	over := image.Routine{Name: "over", Entry: r.Entry, End: img.Base + uint64(len(img.Code)) + 8}
	if _, valid := pin.RoutineCode(img, over); valid {
		t.Error("routine past the code segment reported valid")
	}
}

// TestTraceInstrumentationSurvivesTruncatedImage: trace-granularity
// instrumentation consults the symbol table to slice out routine code;
// when the code segment has been truncated underneath the table (a
// corrupted binary), instrumentation must degrade to uninstrumented
// execution for the damaged routines instead of panicking.
func TestTraceInstrumentationSurvivesTruncatedImage(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("truncated image caused a panic: %v", r)
		}
	}()
	w, err := wfs.NewWorkload(wfs.Small())
	if err != nil {
		t.Fatal(err)
	}
	blob := w.Prog.Main.Marshal()
	img, err := image.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the code segment mid-routine: the symbol table now claims
	// spans past the end of Code.
	img.Code = img.Code[:len(img.Code)-4*8]

	m := vm.New()
	m.LoadImage(img)
	for _, lib := range w.Prog.Libs {
		m.LoadImage(lib)
	}
	m.Reset(w.Prog.EntryPC)
	e := pin.NewEngine(m)
	attachBBLCounter(e)
	// The guest reads its missing input and eventually traps or exits;
	// either way the run must end without a panic.
	_ = m.Run(10_000_000)
}
