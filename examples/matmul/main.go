// Matmul: use tQUAD to compare the temporal memory behaviour of two
// loop orders of a dense matrix multiplication — the classic
// code-revision use case the paper motivates ("general application
// revision for performance improvement").
//
//	go run ./examples/matmul
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

const dim = 48 // matrix dimension

// buildMatmul describes C = A*B with the requested inner loop order.
func buildMatmul(order string) *hl.Builder {
	b := hl.NewBuilder("matmul_"+order, image.Main)
	a := b.Global("A", dim*dim*8)
	bb := b.Global("B", dim*dim*8)
	c := b.Global("C", dim*dim*8)

	// init: deterministic matrix contents.
	b.Func("init", 0, func(f *hl.Fn) {
		pa := f.Local()
		pb := f.Local()
		f.Set(pa, f.GAddr(a))
		f.Set(pb, f.GAddr(bb))
		i := f.Local()
		f.ForRangeI(i, 0, dim*dim, func() {
			f.St8(f.Add(pa, f.ShlI(i, 3)), 0, f.I2f(f.Rem(i, f.Const(17))))
			f.St8(f.Add(pb, f.ShlI(i, 3)), 0, f.I2f(f.Rem(i, f.Const(13))))
		})
		f.Ret0()
	})

	// multiply: the kernel under study.
	b.Func("multiply", 0, func(f *hl.Fn) {
		pa := f.Local()
		pb := f.Local()
		pc := f.Local()
		f.Set(pa, f.GAddr(a))
		f.Set(pb, f.GAddr(bb))
		f.Set(pc, f.GAddr(c))
		i := f.Local()
		j := f.Local()
		k := f.Local()
		elem := func(base hl.Reg, r, cidx hl.Reg) hl.Reg {
			return f.Add(base, f.ShlI(f.Add(f.MulI(r, dim), cidx), 3))
		}
		switch order {
		case "ijk":
			// Strided B access in the inner loop: poor locality.
			f.ForRangeI(i, 0, dim, func() {
				f.ForRangeI(j, 0, dim, func() {
					acc := f.Local()
					f.SetF(acc, 0)
					f.ForRangeI(k, 0, dim, func() {
						f.Set(acc, f.Fadd(acc,
							f.Fmul(f.Ld8(elem(pa, i, k), 0), f.Ld8(elem(pb, k, j), 0))))
					})
					f.St8(elem(pc, i, j), 0, acc)
				})
			})
		case "ikj":
			// Streaming access: C row accumulates B rows.
			f.ForRangeI(i, 0, dim, func() {
				f.ForRangeI(k, 0, dim, func() {
					av := f.Local()
					f.Set(av, f.Ld8(elem(pa, i, k), 0))
					f.ForRangeI(j, 0, dim, func() {
						f.St8(elem(pc, i, j), 0,
							f.Fadd(f.Ld8(elem(pc, i, j), 0), f.Fmul(av, f.Ld8(elem(pb, k, j), 0))))
					})
				})
			})
		default:
			panic("unknown order " + order)
		}
		f.Ret0()
	})

	// checksum: fold C into an integer so the result is observable.
	b.Func("checksum", 0, func(f *hl.Fn) {
		pc := f.Local()
		f.Set(pc, f.GAddr(c))
		acc := f.Local()
		f.SetF(acc, 0)
		i := f.Local()
		f.ForRangeI(i, 0, dim*dim, func() {
			f.Set(acc, f.Fadd(acc, f.Ld8(f.Add(pc, f.ShlI(i, 3)), 0)))
		})
		f.Ret(f.F2i(acc))
	})

	b.Func("main", 0, func(f *hl.Fn) {
		f.CallV("init")
		f.CallV("multiply")
		f.Ret(f.Call("checksum"))
	})
	return b
}

func profile(order string) (checksum int64, prof *core.Profile, err error) {
	prog, err := hl.Link(buildMatmul(order), glibc.Builder())
	if err != nil {
		return 0, nil, err
	}
	m := vm.New()
	m.SetSyscallHandler(gos.New())
	for _, img := range prog.Images() {
		m.LoadImage(img)
	}
	m.Reset(prog.EntryPC)
	engine := pin.NewEngine(m)
	tool := core.Attach(engine, core.Options{SliceInterval: 20_000, IncludeStack: true})
	if err := m.Run(1_000_000_000); err != nil {
		return 0, nil, err
	}
	return m.ExitCode, tool.Snapshot(), nil
}

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run profiles both loop orders and writes their bandwidth signatures
// to w.
func run(w io.Writer) error {
	var sums [2]int64
	for idx, order := range []string{"ijk", "ikj"} {
		sum, prof, err := profile(order)
		if err != nil {
			return err
		}
		sums[idx] = sum
		k, _ := prof.Kernel("multiply")
		st := k.Stats(true, prof.SliceInterval)
		fmt.Fprintf(w, "%s: checksum=%d  instructions=%-9d  multiply: %.3f B/instr read, %.3f B/instr written (peak %.3f)\n",
			order, sum, prof.TotalInstr, st.AvgRead, st.AvgWrite, st.MaxRW)
	}
	if sums[0] != sums[1] {
		return fmt.Errorf("loop orders disagree: %d vs %d", sums[0], sums[1])
	}
	fmt.Fprintln(w, "\nsame result, different temporal bandwidth signature — the ikj variant")
	fmt.Fprintln(w, "writes C once per inner iteration (higher write intensity), which is")
	fmt.Fprintln(w, "precisely what a bandwidth-aware mapping decision needs to know.")
	return nil
}
