// Command gprofsim produces the gprof-style flat profile of the WFS
// case-study workload (paper Table I), or — with -instrumented — the
// flat profile of the QUAD-instrumented run with rank and trend columns
// (paper Table III).
//
// Usage:
//
//	gprofsim [-config small|study] [-instrumented] [-sample N] [-all]
package main

import (
	"flag"
	"fmt"
	"log"

	"tquad/internal/report"
	"tquad/internal/study"
	"tquad/internal/wfs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gprofsim: ")
	var (
		config       = flag.String("config", "small", "workload configuration: small or study")
		instrumented = flag.Bool("instrumented", false, "profile the QUAD-instrumented binary (Table III)")
		all          = flag.Bool("all", false, "include every routine, not just the paper's kernels")
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
	sch := study.NewScheduler(s, 0)
	defer sch.Close()
	sch.SetReplay(false)
	pFlat := sch.Submit(study.RunConfig{Kind: study.RunFlat})
	if *instrumented {
		pInstr := sch.Submit(study.RunConfig{Kind: study.RunInstrFlat})
		base, instr := wait(pFlat).Flat, wait(pInstr).Flat
		fmt.Printf("flat profile of the QUAD-instrumented run (total %.3fs vs native %.3fs)\n\n",
			instr.TotalSeconds, base.TotalSeconds)
		fmt.Print(study.RenderTableIII(base, instr))
		return
	}

	p := wait(pFlat).Flat
	fmt.Printf("flat profile: %d samples, %.4f simulated seconds\n\n", p.TotalSamples, p.TotalSeconds)
	if !*all {
		fmt.Print(study.RenderTableI(p))
		return
	}
	t := report.NewTable("routine", "%time", "self seconds", "calls", "self ms/call", "total ms/call")
	for _, r := range p.Rows {
		t.AddRow(r.Name, report.F2(r.Pct), report.F(r.SelfSeconds), report.U(r.Calls),
			report.F(r.SelfMsCall), report.F(r.TotalMsCall))
	}
	fmt.Print(t.String())
}

func wait(p *study.Pending) *study.RunResult {
	res, err := p.Wait()
	if err != nil {
		log.Fatal(err)
	}
	return res
}
