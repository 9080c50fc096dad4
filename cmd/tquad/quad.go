package main

// tquad quad runs the QUAD memory-access-pattern analyser on the WFS
// case-study workload, printing the Table II producer/consumer summary
// and, optionally, the QDU graph in Graphviz DOT form.
//
// Usage:
//
//	tquad quad [-config small|study] [-stack include|exclude|both]
//	           [-ignore-libs] [-dot FILE] [-min-bytes N] [-json FILE]

import (
	"fmt"
	"io"
	"log"
	"os"

	"tquad/internal/quad"
	"tquad/internal/report"
	"tquad/internal/study"
	"tquad/internal/trace"
)

func quadMain(args []string) {
	fs := command("tquad quad")
	var (
		config     = fs.String("config", "small", "workload configuration: small or study")
		stack      = fs.String("stack", "both", "stack-area accesses: include, exclude or both")
		ignoreLibs = fs.Bool("ignore-libs", false, "exclude OS/library routine accesses")
		dotFile    = fs.String("dot", "", "write the QDU graph in DOT form to this file (- for stdout)")
		minBytes   = fs.Uint64("min-bytes", 1, "omit QDU edges thinner than this")
		jsonFile   = fs.String("json", "", "also write the stack-inclusive report as JSON to this file")
	)
	parse(fs, args)

	sch := replayOff(newStudy(*config), 0)
	defer sch.Close()
	submit := func(includeStack bool) *study.Pending {
		return sch.Submit(study.RunConfig{Kind: study.RunQUAD, IncludeStack: includeStack, ExcludeLibs: *ignoreLibs})
	}

	var rep *quad.Report
	switch *stack {
	case "both":
		pExcl, pIncl := submit(false), submit(true)
		excl := wait(pExcl).Quad
		rep = wait(pIncl).Quad
		fmt.Print(study.RenderTableII(excl, rep))
	case "include", "exclude":
		rep = wait(submit(*stack == "include")).Quad
		t := report.NewTable("kernel", "IN", "IN UnMA", "OUT", "OUT UnMA")
		for _, k := range rep.Kernels {
			t.AddRow(k.Name, report.U(k.In), report.U(k.InUnMA), report.U(k.Out), report.U(k.OutUnMA))
		}
		fmt.Print(t.String())
	default:
		log.Fatalf("bad -stack %q", *stack)
	}
	writeDot(rep, *dotFile, *minBytes)
	if *jsonFile != "" {
		if err := writeFile(*jsonFile, func(w io.Writer) error { return trace.SaveQUAD(w, rep) }); err != nil {
			log.Fatalf("-json %s: %v", *jsonFile, err)
		}
	}
}

func writeDot(rep *quad.Report, path string, minBytes uint64) {
	if path == "" {
		return
	}
	dot := rep.QDUGraphDOT(minBytes)
	if path == "-" {
		fmt.Print(dot)
		return
	}
	if err := os.WriteFile(path, []byte(dot), 0o644); err != nil {
		log.Fatalf("write %s: %v", path, err)
	}
	fmt.Printf("QDU graph written to %s\n", path)
}
