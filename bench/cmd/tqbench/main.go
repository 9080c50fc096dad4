// Command tqbench is the repository's benchmark.  It runs one workload
// (or all of them), checks every operation's outputs, prints each metric
// with its unit, and ends its standard output with one JSON line:
// {"correct", "attempted", "failed", "metrics"}.  It exits non-zero when
// any operation failed or returned a wrong output.
//
// Usage:
//
//	tqbench [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1]
//	        [-trace-dir DIR] [-out FILE]
//	tqbench compare [-bench BENCHMARK.json] A.jsonl B.jsonl
//
// -trace 1 is the traced run: it reports the per-layer metrics instead
// of the end-to-end ones and writes spans.jsonl and cpu.pprof under
// -trace-dir.  -out appends each run's result as a JSON line; compare
// reads two such files and judges B against A with the bounds in
// BENCHMARK.json.  See README.md in the benchmark's directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"tquad/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tqbench: ")
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Uint64("seed", 1, "input seed (1 is the default, 7 is held out for claims)")
		seconds  = flag.Float64("seconds", 20, "measurement budget per workload, in seconds")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		traceDir = flag.String("trace-dir", ".bench_build/trace", "where a traced run writes spans.jsonl and cpu.pprof")
		out      = flag.String("out", "", "append each run's result to this file, one JSON line per run")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range bench.Workloads {
			names = append(names, w.Name)
		}
	}
	failed := false
	for _, name := range names {
		res, err := bench.Run(bench.Options{
			Workload: name, Seed: *seed, Seconds: *seconds,
			Trace: *trace == 1, TraceDir: *traceDir, Log: os.Stdout,
		})
		if err != nil {
			log.Fatal(err)
		}
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				log.Fatal(err)
			}
		}
		line, err := res.Summary()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(line))
		failed = failed || !res.Correct
	}
	if failed {
		os.Exit(1)
	}
}

// appendResult appends one run's result to the -out file.
func appendResult(path string, res *bench.Result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func compare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	benchFile := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds")
	fs.Parse(args)
	if fs.NArg() != 2 {
		log.Print("usage: tqbench compare [-bench BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	bounds, err := bench.LoadBounds(*benchFile)
	if err != nil {
		log.Print(err)
		return 2
	}
	a, err := bench.ReadResults(fs.Arg(0))
	if err != nil {
		log.Print(err)
		return 2
	}
	b, err := bench.ReadResults(fs.Arg(1))
	if err != nil {
		log.Print(err)
		return 2
	}
	if !bench.Compare(os.Stdout, a, b, bounds) {
		return 1
	}
	return 0
}
