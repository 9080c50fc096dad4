// WFS study: drive the library's case-study API end to end on the fast
// configuration — the programme of the paper's Section V in ~20 lines of
// client code.  (`tquad study` renders the full evaluation; this example
// shows the API surface an adopter would use.)
//
//	go run ./examples/wfs_study
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"tquad/internal/study"
	"tquad/internal/wfs"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run drives the three experiments and writes their summaries to w.
func run(w io.Writer) error {
	s, err := study.New(wfs.Small())
	if err != nil {
		return err
	}
	// One scheduler runs every experiment; with replay off each
	// configuration executes the guest once, live, and independent ones
	// run in parallel.
	sch := study.NewScheduler(s, 0)
	defer sch.Close()
	sch.SetReplay(false)
	iv, err := sch.SliceForCount(64)
	if err != nil {
		return err
	}
	res, err := study.WaitAll(
		sch.Submit(study.RunConfig{Kind: study.RunFlat}),
		sch.Submit(study.RunConfig{Kind: study.RunTQUAD, SliceInterval: iv, IncludeStack: true}),
		sch.Submit(study.RunConfig{Kind: study.RunTQUAD, SliceInterval: 5000, IncludeStack: true}))
	if err != nil {
		return err
	}

	// Flat profile (Table I): who dominates execution time?
	flat := res[0].Flat
	fmt.Fprintln(w, "top kernels by execution time:")
	for i, r := range flat.Rows {
		if i == 5 {
			break
		}
		fmt.Fprintf(w, "  %d. %-24s %5.2f%%  (%d calls)\n", i+1, r.Name, r.Pct, r.Calls)
	}

	// Temporal bandwidth (Figures 6/7): when do they run, and how hard
	// do they hit memory?
	prof := res[1].Temporal
	fmt.Fprintln(w, "\ntemporal read-bandwidth (stack included):")
	fmt.Fprint(w, study.RenderFigure("", prof, wfs.TopTenKernels()[:5], true, true, 60))

	// Phases (Table IV): the structure a partitioner needs.
	pprof := res[2].Temporal
	phases := s.PhasesFromProfile(pprof)
	fmt.Fprintf(w, "\n%d execution phases:\n", len(phases))
	labels := []string{"initialization", "wave load", "wave propagation", "WFS main processing", "wave save"}
	for i, ph := range phases {
		label := "?"
		if i < len(labels) {
			label = labels[i]
		}
		fmt.Fprintf(w, "  %-20s slices %5d-%5d (%4.1f%% of run, %d kernels)\n",
			label, ph.Start, ph.End-1,
			100*float64(ph.Span())/float64(pprof.NumSlices), len(ph.Kernels))
	}
	return nil
}
