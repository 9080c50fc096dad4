package main

// tquad gprof produces the gprof-style flat profile of the WFS
// case-study workload (paper Table I), or — with -instrumented — the
// flat profile of the QUAD-instrumented run with rank and trend columns
// (paper Table III).
//
// Usage:
//
//	tquad gprof [-config small|study] [-instrumented] [-all]

import (
	"fmt"

	"tquad/internal/report"
	"tquad/internal/study"
)

func gprofMain(args []string) {
	fs := command("tquad gprof")
	var (
		config       = fs.String("config", "small", "workload configuration: small or study")
		instrumented = fs.Bool("instrumented", false, "profile the QUAD-instrumented binary (Table III)")
		all          = fs.Bool("all", false, "include every routine, not just the paper's kernels")
	)
	parse(fs, args)

	sch := replayOff(newStudy(*config), 0)
	defer sch.Close()
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
