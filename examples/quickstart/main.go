// Quickstart: build a tiny guest program with the hl builder, run it
// under the tQUAD temporal profiler, and print its memory-bandwidth
// profile.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"tquad/internal/core"
	"tquad/internal/glibc"
	"tquad/internal/gos"
	"tquad/internal/hl"
	"tquad/internal/image"
	"tquad/internal/pin"
	"tquad/internal/vm"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run profiles the two-kernel program and writes its bandwidth summary
// to w.
func run(w io.Writer) error {
	// 1. Describe a guest program: two kernels with very different
	// memory behaviour.
	b := hl.NewBuilder("quickstart", image.Main)
	buf := b.Global("buf", 8*4096)

	// fill: streams 4096 words into a global buffer.
	b.Func("fill", 0, func(f *hl.Fn) {
		p := f.Local()
		f.Set(p, f.GAddr(buf))
		i := f.Local()
		f.ForRangeI(i, 0, 4096, func() {
			f.St8(f.Add(p, f.ShlI(i, 3)), 0, i)
		})
		f.Ret0()
	})
	// crunch: computes over the buffer with far fewer bytes per
	// instruction (a compute-bound kernel).
	b.Func("crunch", 0, func(f *hl.Fn) {
		p := f.Local()
		f.Set(p, f.GAddr(buf))
		acc := f.Local()
		f.SetF(acc, 0)
		i := f.Local()
		f.ForRangeI(i, 0, 4096, func() {
			v := f.Local()
			f.Set(v, f.I2f(f.Ld8(f.Add(p, f.ShlI(i, 3)), 0)))
			// Plenty of arithmetic per loaded word.
			f.Set(v, f.Fsqrt(f.Fabs(f.Fsin(v))))
			f.Set(acc, f.Fadd(acc, v))
		})
		f.Ret(f.F2i(acc))
	})
	b.Func("main", 0, func(f *hl.Fn) {
		f.CallV("fill")
		f.Ret(f.Call("crunch"))
	})

	// 2. Link against the guest libc and load into a fresh machine.
	prog, err := hl.Link(b, glibc.Builder())
	if err != nil {
		return err
	}
	m := vm.New()
	m.SetSyscallHandler(gos.New())
	for _, img := range prog.Images() {
		m.LoadImage(img)
	}
	m.Reset(prog.EntryPC)

	// 3. Attach tQUAD through the pin-style instrumentation engine.
	engine := pin.NewEngine(m)
	tool := core.Attach(engine, core.Options{SliceInterval: 2000, IncludeStack: true})

	// 4. Run and inspect.
	if err := m.Run(100_000_000); err != nil {
		return err
	}
	prof := tool.Snapshot()
	fmt.Fprintf(w, "executed %d instructions in %d slices (exit code %d)\n\n",
		prof.TotalInstr, prof.NumSlices, m.ExitCode)
	for _, k := range prof.Kernels {
		if k.Name != "fill" && k.Name != "crunch" {
			continue
		}
		st := k.Stats(true, prof.SliceInterval)
		fmt.Fprintf(w, "%-8s active slices %3d..%3d  avg %.2f B/instr read, %.2f B/instr written, peak %.2f\n",
			k.Name, k.FirstSlice, k.LastSlice, st.AvgRead, st.AvgWrite, st.MaxRW)
	}
	fmt.Fprintln(w, "\nfill is the bandwidth hog; crunch barely touches memory —")
	fmt.Fprintln(w, "exactly the distinction tQUAD exists to expose.")
	return nil
}
