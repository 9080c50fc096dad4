package main

// tquad phases runs tQUAD at a fine slice interval and identifies the
// application's execution phases (paper Table IV).
//
// Usage:
//
//	tquad phases [-config small|study] [-slice N] [-all-functions] [-json FILE]

import (
	"fmt"
	"io"
	"log"

	"tquad/internal/phase"
	"tquad/internal/study"
	"tquad/internal/trace"
	"tquad/internal/wfs"
)

func phasesMain(args []string) {
	fs := command("tquad phases")
	var (
		config   = fs.String("config", "small", "workload configuration: small or study")
		slice    = fs.Uint64("slice", 5000, "time slice interval in instructions")
		allFns   = fs.Bool("all-functions", false, "consider every routine, not just the paper's kernels")
		jsonFile = fs.String("json", "", "also write the phase table as JSON to this file")
	)
	parse(fs, args)

	sch := replayOff(newStudy(*config), 1)
	defer sch.Close()
	prof := wait(sch.Submit(study.RunConfig{Kind: study.RunTQUAD, SliceInterval: *slice, IncludeStack: true})).Temporal
	opts := phase.Options{IncludeStack: true}
	if !*allFns {
		opts.Kernels = wfs.KernelNames()
	}
	phases := phase.Detect(prof, opts)
	if *jsonFile != "" {
		if err := writeFile(*jsonFile, func(w io.Writer) error { return trace.SavePhases(w, phases) }); err != nil {
			log.Fatalf("-json %s: %v", *jsonFile, err)
		}
	}
	fmt.Printf("%d phases over %d slices of %d instructions\n\n",
		len(phases), prof.NumSlices, prof.SliceInterval)
	fmt.Print(study.RenderTableIV(phases, prof.NumSlices))
}
