// Phase detection: build a synthetic three-stage pipeline (produce →
// transform → consume), profile it with tQUAD, detect its execution
// phases, and cluster its kernels by communication — the full task
// partitioning workflow of the Delft WorkBench context the paper targets.
//
//	go run ./examples/phase_detection
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"tquad/internal/cluster"
	"tquad/internal/core"
	"tquad/internal/glibc"
	"tquad/internal/gos"
	"tquad/internal/hl"
	"tquad/internal/image"
	"tquad/internal/phase"
	"tquad/internal/pin"
	"tquad/internal/quad"
	"tquad/internal/vm"
)

const words = 16384

func buildPipeline() *hl.Builder {
	b := hl.NewBuilder("pipeline", image.Main)
	raw := b.Global("raw", words*8)
	cooked := b.Global("cooked", words*8)
	result := b.Global("result", 8)

	// produce: generate pseudo-random raw data (phase 1).
	b.Func("produce", 0, func(f *hl.Fn) {
		p := f.Local()
		f.Set(p, f.GAddr(raw))
		state := f.Local()
		f.SetI(state, 0x1234567)
		i := f.Local()
		f.ForRangeI(i, 0, words, func() {
			f.Set(state, f.Add(f.Mul(state, f.Const(6364136223846793005)), f.Const(1442695040888963407)))
			f.St8(f.Add(p, f.ShlI(i, 3)), 0, f.ShrI(state, 33))
		})
		f.Ret0()
	})
	// smooth: one neighbourhood pass raw -> cooked (phase 2, called
	// repeatedly).
	b.Func("smooth", 1, func(f *hl.Fn) {
		pass := f.Param(0)
		_ = pass
		src := f.Local()
		dst := f.Local()
		f.Set(src, f.GAddr(raw))
		f.Set(dst, f.GAddr(cooked))
		i := f.Local()
		f.ForRangeI(i, 1, words-1, func() {
			s := f.Add(src, f.ShlI(i, 3))
			v := f.Add(f.Add(f.Ld8(s, -8), f.Ld8(s, 0)), f.Ld8(s, 8))
			f.St8(f.Add(dst, f.ShlI(i, 3)), 0, f.Div(v, f.Const(3)))
		})
		// Feed back for the next pass.
		f.ForRangeI(i, 0, words, func() {
			f.St8(f.Add(src, f.ShlI(i, 3)), 0, f.Ld8(f.Add(dst, f.ShlI(i, 3)), 0))
		})
		f.Ret0()
	})
	// consume: reduce cooked data into the result (phase 3).
	b.Func("consume", 0, func(f *hl.Fn) {
		p := f.Local()
		f.Set(p, f.GAddr(cooked))
		acc := f.Local()
		f.SetI(acc, 0)
		i := f.Local()
		f.ForRangeI(i, 0, words, func() {
			f.Set(acc, f.Xor(acc, f.Ld8(f.Add(p, f.ShlI(i, 3)), 0)))
		})
		f.St8(f.GAddr(result), 0, acc)
		f.Ret(acc)
	})
	b.Func("main", 0, func(f *hl.Fn) {
		f.CallV("produce")
		pass := f.Local()
		f.ForRangeI(pass, 0, 6, func() {
			f.CallV("smooth", pass)
		})
		f.Ret(f.Call("consume"))
	})
	return b
}

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run profiles the pipeline and writes its phases, producer/consumer
// bindings and kernel clusters to w.
func run(w io.Writer) error {
	prog, err := hl.Link(buildPipeline(), glibc.Builder())
	if err != nil {
		return err
	}
	m := vm.New()
	m.SetSyscallHandler(gos.New())
	for _, img := range prog.Images() {
		m.LoadImage(img)
	}
	m.Reset(prog.EntryPC)
	engine := pin.NewEngine(m)
	tq := core.Attach(engine, core.Options{SliceInterval: 5_000, IncludeStack: true})
	qd := quad.Attach(engine, quad.Options{IncludeStack: true})
	if err := m.Run(1_000_000_000); err != nil {
		return err
	}

	prof := tq.Snapshot()
	phases := phase.Detect(prof, phase.Options{
		IncludeStack: true,
		Kernels:      []string{"produce", "smooth", "consume"},
		// The pipeline stages hand off sharply, so use a tight window
		// and disable the containment merge meant for loop alternation.
		Window:     1,
		MergeSim:   0.6,
		OverlapSim: 2,
	})
	fmt.Fprintf(w, "detected %d phases over %d slices:\n", len(phases), prof.NumSlices)
	for i, ph := range phases {
		fmt.Fprintf(w, "  phase %d [%4d,%4d): %v\n", i+1, ph.Start, ph.End, ph.KernelNames())
	}

	rep := qd.Report()
	fmt.Fprintln(w, "\nproducer/consumer bindings:")
	for _, bind := range rep.Bindings {
		if bind.Producer == "" || bind.Bytes < 1000 {
			continue
		}
		fmt.Fprintf(w, "  %-8s -> %-8s %8d bytes\n", bind.Producer, bind.Consumer, bind.Bytes)
	}

	res := cluster.Build(prof, rep, cluster.Options{TargetClusters: 2, IncludeStack: true})
	fmt.Fprintln(w, "\nclustering for task partitioning (2 clusters):")
	for i, c := range res.Clusters {
		fmt.Fprintf(w, "  cluster %d: %v (intra %d bytes)\n", i+1, c.Kernels, c.IntraBytes)
	}
	fmt.Fprintf(w, "  inter-cluster traffic: %d bytes\n", res.InterBytes)
	return nil
}
