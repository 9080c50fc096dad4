// Command quad runs the QUAD memory-access-pattern analyser on the WFS
// case-study workload, printing the Table II producer/consumer summary
// and, optionally, the QDU graph in Graphviz DOT form.
//
// Usage:
//
//	quad [-config small|study] [-stack include|exclude|both]
//	     [-ignore-libs] [-dot FILE] [-min-bytes N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"tquad/internal/quad"
	"tquad/internal/report"
	"tquad/internal/study"
	"tquad/internal/trace"
	"tquad/internal/wfs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quad: ")
	var (
		config     = flag.String("config", "small", "workload configuration: small or study")
		stack      = flag.String("stack", "both", "stack-area accesses: include, exclude or both")
		ignoreLibs = flag.Bool("ignore-libs", false, "exclude OS/library routine accesses")
		dotFile    = flag.String("dot", "", "write the QDU graph in DOT form to this file (- for stdout)")
		minBytes   = flag.Uint64("min-bytes", 1, "omit QDU edges thinner than this")
		jsonFile   = flag.String("json", "", "also write the stack-inclusive report as JSON to this file")
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
	submit := func(includeStack bool) *study.Pending {
		return sch.Submit(study.RunConfig{Kind: study.RunQUAD, IncludeStack: includeStack, ExcludeLibs: *ignoreLibs})
	}
	wait := func(p *study.Pending) *quad.Report {
		res, err := p.Wait()
		if err != nil {
			log.Fatal(err)
		}
		return res.Quad
	}

	saveJSON := func(rep *quad.Report) {
		if *jsonFile == "" {
			return
		}
		fh, err := os.Create(*jsonFile)
		if err != nil {
			log.Fatal(err)
		}
		err = trace.SaveQUAD(fh, rep)
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatalf("-json %s: %v", *jsonFile, err)
		}
	}

	switch *stack {
	case "both":
		pExcl, pIncl := submit(false), submit(true)
		excl, incl := wait(pExcl), wait(pIncl)
		fmt.Print(study.RenderTableII(excl, incl))
		writeDot(incl, *dotFile, *minBytes)
		saveJSON(incl)
	case "include", "exclude":
		rep := wait(submit(*stack == "include"))
		t := report.NewTable("kernel", "IN", "IN UnMA", "OUT", "OUT UnMA")
		for _, k := range rep.Kernels {
			t.AddRow(k.Name, report.U(k.In), report.U(k.InUnMA), report.U(k.Out), report.U(k.OutUnMA))
		}
		fmt.Print(t.String())
		writeDot(rep, *dotFile, *minBytes)
		saveJSON(rep)
	default:
		log.Fatalf("bad -stack %q", *stack)
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
