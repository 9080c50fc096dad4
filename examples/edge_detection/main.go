// Edge detection: profile the second case-study workload (the integer
// image pipeline) and render its temporal bandwidth signature and QDU
// data flow — tQUAD applied outside the audio domain.
//
//	go run ./examples/edge_detection
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"tquad/internal/core"
	"tquad/internal/imgproc"
	"tquad/internal/phase"
	"tquad/internal/pin"
	"tquad/internal/quad"
	"tquad/internal/report"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run profiles the image pipeline and writes its bandwidth chart,
// phases and data flow to out.
func run(out io.Writer) error {
	w, err := imgproc.NewWorkload(imgproc.Small())
	if err != nil {
		return err
	}
	m, osys := w.NewMachine()
	engine := pin.NewEngine(m)
	tq := core.Attach(engine, core.Options{SliceInterval: 3000, IncludeStack: true})
	qd := quad.Attach(engine, quad.Options{IncludeStack: false})
	if err := m.Run(500_000_000); err != nil {
		return err
	}

	edges, _ := osys.File(w.Cfg.OutputFile)
	on := 0
	for _, v := range edges {
		if v == 255 {
			on++
		}
	}
	fmt.Fprintf(out, "pipeline done: %dx%d image, %d edge pixels, %d guest instructions\n\n",
		w.Cfg.Width, w.Cfg.Height, on, m.ICount)

	prof := tq.Snapshot()
	series := map[string][]uint64{}
	for _, name := range imgproc.KernelNames() {
		if k, ok := prof.Kernel(name); ok {
			series[name] = k.Series(prof.NumSlices, true, true)
		}
	}
	fmt.Fprint(out, report.BandwidthChart("temporal read bandwidth (bytes/slice)",
		imgproc.KernelNames(), series, 60))

	phases := phase.Detect(prof, phase.Options{IncludeStack: true, Kernels: imgproc.KernelNames()})
	fmt.Fprintf(out, "\n%d phases:\n", len(phases))
	for i, ph := range phases {
		fmt.Fprintf(out, "  phase %d [%4d,%4d): %v\n", i+1, ph.Start, ph.End, ph.KernelNames())
	}

	fmt.Fprintln(out, "\ndata flow (QDU bindings over 10 KB):")
	for _, b := range qd.Report().Bindings {
		if b.Producer == "" || b.Bytes < 10_000 {
			continue
		}
		fmt.Fprintf(out, "  %-10s -> %-10s %8d bytes\n", b.Producer, b.Consumer, b.Bytes)
	}
	return nil
}
