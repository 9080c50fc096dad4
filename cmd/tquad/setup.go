package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tquad/internal/cliutil"
	"tquad/internal/memsim"
	"tquad/internal/obs"
	"tquad/internal/obs/live"
	"tquad/internal/study"
	"tquad/internal/wfs"
)

// command starts a (sub)command named name, e.g. "tquad quad": its log
// lines carry the name, and the returned flag set reports parse errors
// and -h under it.
func command(name string) *flag.FlagSet {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	return flag.NewFlagSet(name, flag.ExitOnError)
}

// parse parses a (sub)command's arguments.  No command takes positional
// arguments, so a leftover one — a mistyped subcommand, say — is a usage
// error like a bad flag: it is named, the usage follows, and the exit
// status is 2.
func parse(fs *flag.FlagSet, args []string) {
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "%s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		fs.Usage()
		os.Exit(2)
	}
}

// lookupConfig resolves a -config name, exiting on an unknown one.
func lookupConfig(name string) wfs.Config {
	cfg, err := wfs.ConfigByName(name)
	if err != nil {
		log.Fatal(err)
	}
	return cfg
}

// signalContext returns the invocation's context.  SIGINT/SIGTERM and,
// when timeout > 0, the deadline cancel it: guests stop at their next
// basic block and partial outputs are removed, instead of the process
// dying mid-write.
func signalContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return ctx, func() { cancel(); stop() }
}

// runFlags are the flags the profiler and `tquad study` share.
type runFlags struct {
	jobs       int
	timeout    time.Duration
	maxICount  uint64
	retries    int
	resume     string
	engine     string
	metricsOut string
	traceOut   string
	journalOut string
	serveAddr  string
	stallWin   time.Duration
}

func (f *runFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&f.jobs, "jobs", 0, "maximum concurrently executing runs (0 = GOMAXPROCS)")
	fs.DurationVar(&f.timeout, "timeout", 0, "wall-clock deadline for the whole invocation (0 = none)")
	fs.Uint64Var(&f.maxICount, "max-icount", 0, "guest instruction budget per run (0 = default)")
	fs.IntVar(&f.retries, "retries", 0, "retries per run (and per recording) after transient failures")
	fs.StringVar(&f.resume, "resume", "", "checkpoint journal directory: journal completed runs and the recording, and resume from them on rerun (profiler: excludes -record and -replay)")
	fs.StringVar(&f.engine, "engine", "block", "execution engine: block (pre-decoded basic blocks) or step (reference interpreter)")
	fs.StringVar(&f.metricsOut, "metrics", "", "write a Prometheus text-format metrics snapshot to this file")
	fs.StringVar(&f.traceOut, "trace", "", "write a chrome://tracing JSON trace of the pipeline stages to this file")
	fs.StringVar(&f.journalOut, "journal", "", "write a JSONL event journal (spans + metrics) to this file")
	fs.StringVar(&f.serveAddr, "serve", "", "serve live telemetry (progress page, /metrics, /events, pprof) on this address, e.g. :8080")
	fs.DurationVar(&f.stallWin, "stall-window", 10*time.Second, "with -serve: flag a run as stalled after this long without a heartbeat (0 = never)")
}

// check validates the shared flags, then probes the export paths plus
// outputs (more flag, path pairs): every output path is created before
// any guest work, so a typo'd flag fails in milliseconds, not after the
// run.
func (f *runFlags) check(outputs ...string) error {
	if f.jobs < 0 {
		return fmt.Errorf("bad -jobs %d: must be >= 0", f.jobs)
	}
	if f.retries < 0 {
		return fmt.Errorf("bad -retries %d: must be >= 0", f.retries)
	}
	if f.engine != "block" && f.engine != "step" {
		return fmt.Errorf("bad -engine %q: must be block or step", f.engine)
	}
	return cliutil.EnsureWritableAll(append(outputs,
		"-metrics", f.metricsOut, "-trace", f.traceOut, "-journal", f.journalOut)...)
}

// exports reports whether an observability export file was requested.
func (f *runFlags) exports() bool {
	return f.metricsOut != "" || f.traceOut != "" || f.journalOut != ""
}

// observer returns the invocation's observer: nil — zero cost — unless
// an export file or -serve needs a registry.
func (f *runFlags) observer() *obs.Observer {
	if !f.exports() && f.serveAddr == "" {
		return nil
	}
	return obs.NewObserver()
}

// telemetry is the -serve machinery.  Every field is nil when the flag
// is unset: the run tracker then receives no events, chart.Add is a
// no-op and close does nothing, so the execution hot path is untouched.
type telemetry struct {
	tracker *live.Tracker
	chart   *live.ChartData
	srv     *live.Server
}

// serve starts the -serve server, if set: the progress page titled
// title and the /events stream of a tracker publishing into o's
// registry, which /metrics exposes.  It exits on a bind failure.
func (f *runFlags) serve(o *obs.Observer, title string) *telemetry {
	tel := &telemetry{}
	if f.serveAddr == "" {
		return tel
	}
	tel.chart = live.NewChartData("effective bandwidth of completed runs", "B/instr")
	tel.tracker = live.NewTracker(live.TrackerOptions{Registry: o.Registry(), StallWindow: f.stallWin})
	h, err := live.Progress(live.Options{Tracker: tel.tracker, Chart: tel.chart.SVG, Title: title})
	if err == nil {
		tel.srv, err = live.Serve(f.serveAddr, o.Registry(), h)
	}
	if err != nil {
		log.Fatal(err)
	}
	// The bound address goes to stdout: with -serve :0 the kernel picks
	// the port, and scripts read it from here.
	fmt.Printf("live telemetry at %s\n", tel.srv.URL())
	return tel
}

func (t *telemetry) close() {
	if t.srv != nil {
		t.srv.Close()
		t.tracker.Close()
	}
}

// supervised builds the scheduler the profiler and `tquad study` run
// on: a study of cfg observed by o, on the -engine, under ctx, with
// -jobs, -retries, -max-icount, the telemetry's lifecycle events and the
// -resume checkpoint journal.  Resuming logs how many
// completed runs — called noun in the message — the journal holds.
// The returned close drains the scheduler, then closes the journal.
func (f *runFlags) supervised(ctx context.Context, cfg wfs.Config, o *obs.Observer, tel *telemetry, noun string) (*study.Scheduler, *study.Study, func(), error) {
	s, err := study.NewObserved(cfg, o)
	if err != nil {
		return nil, nil, nil, err
	}
	s.W.Interpret = f.engine == "step"
	sch := study.NewScheduler(s, f.jobs)
	sch.SetContext(ctx)
	sch.SetRetries(f.retries)
	sch.SetMaxInstr(f.maxICount)
	if tel.tracker != nil {
		sch.SetEvents(tel.tracker)
	}
	if f.resume == "" {
		return sch, s, sch.Close, nil
	}
	ck, err := study.OpenCheckpoint(f.resume)
	if err != nil {
		sch.Close()
		return nil, nil, nil, err
	}
	sch.SetCheckpoint(ck)
	if done := len(ck.Completed()); done > 0 {
		log.Printf("resuming: %d %s(s) already completed in %s", done, noun, f.resume)
	}
	return sch, s, func() { sch.Close(); ck.Close() }, nil
}

// newStudy builds the study of a -config name, exiting on failure.
func newStudy(config string) *study.Study {
	s, err := study.New(lookupConfig(config))
	if err != nil {
		log.Fatal(err)
	}
	return s
}

// replayOff returns the scheduler quad, gprof, phases and run use:
// every configuration executes the guest live once, with nothing
// recorded, on up to jobs workers (<= 0: GOMAXPROCS).
func replayOff(s *study.Study, jobs int) *study.Scheduler {
	sch := study.NewScheduler(s, jobs)
	sch.SetReplay(false)
	return sch
}

// wait returns a run's result, exiting on its failure.
func wait(p *study.Pending) *study.RunResult {
	res, err := p.Wait()
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// writeFile creates path and fills it with write.  A failed write or
// Close is an error too: a full disk must not leave a silently short
// file behind.
func writeFile(path string, write func(io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(fh)
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	return err
}

// parseCaches parses a -cache flag into canonical hierarchy keys: a
// semicolon-separated list of hierarchy descriptions (levels within one
// hierarchy are comma-separated, so the list separator must differ).
// Hierarchies that canonicalise to the same geometry collapse to one.
// An empty flag leaves the simulator detached.
func parseCaches(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	return cliutil.ParseList("-cache", s, ";",
		func(part string) (string, error) {
			c, err := memsim.ParseConfig(part)
			if err != nil {
				return "", err
			}
			return c.Key(), nil
		},
		func(key string) string { return key })
}
