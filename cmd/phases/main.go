// Command phases runs tQUAD at a fine slice interval and identifies the
// application's execution phases (paper Table IV).
//
// Usage:
//
//	phases [-config small|study] [-slice N] [-all-functions]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"tquad/internal/phase"
	"tquad/internal/study"
	"tquad/internal/trace"
	"tquad/internal/wfs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("phases: ")
	var (
		config   = flag.String("config", "small", "workload configuration: small or study")
		slice    = flag.Uint64("slice", 5000, "time slice interval in instructions")
		allFns   = flag.Bool("all-functions", false, "consider every routine, not just the paper's kernels")
		jsonFile = flag.String("json", "", "also write the phase table as JSON to this file")
	)
	flag.Parse()

	cfg, err := wfs.ConfigByName(*config)
	if err != nil {
		log.Fatal(err)
	}
	s, err := study.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sch := study.NewScheduler(s, 1)
	defer sch.Close()
	sch.SetReplay(false)
	res, err := sch.Run(study.RunConfig{Kind: study.RunTQUAD, SliceInterval: *slice, IncludeStack: true})
	if err != nil {
		log.Fatal(err)
	}
	prof := res.Temporal
	opts := phase.Options{IncludeStack: true}
	if !*allFns {
		opts.Kernels = wfs.KernelNames()
	}
	phases := phase.Detect(prof, opts)
	if *jsonFile != "" {
		fh, err := os.Create(*jsonFile)
		if err != nil {
			log.Fatal(err)
		}
		err = trace.SavePhases(fh, phases)
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatalf("-json %s: %v", *jsonFile, err)
		}
	}
	fmt.Printf("%d phases over %d slices of %d instructions\n\n",
		len(phases), prof.NumSlices, prof.SliceInterval)
	fmt.Print(study.RenderTableIV(phases, prof.NumSlices))
}
