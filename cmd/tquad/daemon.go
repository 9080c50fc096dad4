package main

// tquad daemon is the tQUAD analysis daemon: it serves the profiler's
// sweep workflow as a long-running HTTP service with a durable job
// queue.  Jobs submitted over the API (or the dashboard at /) persist in
// an append-only journal under -data, execute through the supervised
// scheduler with per-job checkpoints, and leave their reports, profiles
// and charts in a content-addressed artifact store.  Kill the daemon at
// any point and restart it on the same -data directory: interrupted
// jobs resume from their checkpoints with zero guest re-execution.  The
// server is the one -serve uses, so /metrics and /debug/pprof/ are
// there too.
//
// Usage:
//
//	tquad daemon -data /var/lib/tquad [-listen :8077] [-workers 2]
//	             [-sched-jobs N] [-stall D]

import (
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"tquad/internal/jobd"
)

func daemonMain(args []string) {
	fs := command("tquad daemon")
	data := fs.String("data", "", "data directory: job journal, checkpoints, artifacts (required)")
	listen := fs.String("listen", ":8077", "HTTP listen address (\":0\" picks a free port)")
	workers := fs.Int("workers", 1, "jobs to execute concurrently")
	schedJobs := fs.Int("sched-jobs", runtime.GOMAXPROCS(0), "per-job scheduler worker count")
	stall := fs.Duration("stall", 10*time.Second, "per-run stall detector window (0 disables)")
	parse(fs, args)

	if *data == "" {
		log.Print("-data is required")
		fs.Usage()
		os.Exit(2)
	}
	// Signals are caught before the URL is printed, so a client that
	// stops the daemon as soon as it is up gets the graceful drain.
	ctx, stop := signalContext(0)
	defer stop()
	d, err := jobd.New(jobd.Options{
		DataDir:     *data,
		Workers:     *workers,
		SchedJobs:   *schedJobs,
		StallWindow: *stall,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := jobd.Serve(d, *listen)
	if err != nil {
		d.Shutdown()
		log.Fatal(err)
	}
	// The stdout lines keep the wording of the former tquadd binary:
	// scripts read the URL from the first one.
	fmt.Printf("tquadd serving at %s (data %s)\n", srv.URL(), *data)

	// SIGTERM/SIGINT drain gracefully: running guests stop at their next
	// basic block, completed work is already checkpointed, interrupted
	// jobs stay journalled as running and resume on the next boot.
	<-ctx.Done()
	fmt.Println("tquadd: draining...")
	srv.Close()
	if err := d.Shutdown(); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	fmt.Println("tquadd: stopped")
}
