package main

// tquad run executes the WFS guest application natively (no
// instrumentation), verifies its output against the host reference DSP,
// and — with -overhead — measures the simulated instrumentation slowdown
// grid of the paper's Section V.A.
//
// Usage:
//
//	tquad run [-config small|study] [-overhead] [-verify]

import (
	"fmt"
	"log"
	"time"

	"tquad/internal/dsp"
	"tquad/internal/study"
	"tquad/internal/wfs"
)

func runMain(args []string) {
	fs := command("tquad run")
	var (
		config   = fs.String("config", "small", "workload configuration: small or study")
		overhead = fs.Bool("overhead", false, "also measure the instrumentation slowdown grid")
		verify   = fs.Bool("verify", true, "verify guest output against the host reference")
	)
	parse(fs, args)

	cfg := lookupConfig(*config)
	w, err := wfs.NewWorkload(cfg)
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	m, osys, err := w.RunNative()
	if err != nil {
		log.Fatal(err)
	}
	host := time.Since(t0)
	fmt.Printf("guest executed %d instructions in %v (%.1f Minstr/s host)\n",
		m.ICount, host.Round(time.Millisecond), float64(m.ICount)/host.Seconds()/1e6)
	fmt.Printf("memory: %d pages touched (%d KiB); heap %d bytes\n",
		m.Mem.PageCount(), m.Mem.Footprint()/1024, osys.HeapUsed())

	out, err := w.Output(osys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("output: %s — %d channels, %d Hz, %d frames\n",
		cfg.OutputFile, out.Channels, out.SampleRate, out.Frames())

	if *verify {
		want := dsp.Reference(cfg, w.Input.Samples)
		mismatch := 0
		for i := range want {
			if out.Samples[i] != want[i] {
				mismatch++
			}
		}
		if mismatch == 0 {
			fmt.Printf("verify: all %d samples match the host reference bit for bit\n", len(want))
		} else {
			log.Fatalf("verify: %d/%d samples differ from the host reference", mismatch, len(want))
		}
	}

	if *overhead {
		sch := replayOff(&study.Study{W: w}, 0)
		defer sch.Close()
		native, err := sch.NativeICount()
		if err != nil {
			log.Fatal(err)
		}
		rows, err := sch.Slowdown([]uint64{native / 2000, native / 64, native / 16})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("\ninstrumentation slowdown (simulated):")
		fmt.Print(study.RenderSlowdown(rows))
	}
}
