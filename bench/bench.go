// Package bench is the repository's benchmark: it drives the four paths
// a user of tQUAD waits on — a live profile, a slice/cache sweep
// replayed off one recording, the paper's whole evaluation, and jobs
// submitted to the analysis daemon — and reports end-to-end metrics,
// or, in a traced run, per-layer metrics.  Every layer is timed from
// outside, through its public API.  Command tqbench (cmd/tqbench) is
// its command line; README.md defines every metric.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"tquad/internal/study"
	"tquad/internal/wfs"
)

// Options configure one run of one workload.
type Options struct {
	Workload string
	Seed     uint64
	// Seconds is the measurement budget: operations start until the next
	// one would end past it.
	Seconds float64
	// Trace selects the traced run, which reports per-layer metrics
	// instead of end-to-end ones and writes spans.jsonl and cpu.pprof
	// under TraceDir.
	Trace    bool
	TraceDir string
	// Guest sizes the guest of the three study workloads (zero value:
	// wfs.Study()).  daemon-jobs always runs the daemon's "small" guest.
	Guest wfs.Config
	// Log receives the human-readable report (nil: discarded).
	Log io.Writer
}

func (o Options) guest() wfs.Config {
	if o.Guest.Frames == 0 {
		return wfs.Study()
	}
	return o.Guest
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format, args...)
	}
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the outcome of one run, in the form tqbench -out stores it.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Digest hashes the run's simulated outputs (instruction and byte
	// counts, profiles, reports).  They are deterministic for a seed, so
	// two builds that differ only in speed produce the same digest.
	Digest string `json:"digest"`
}

// Summary returns the one-line JSON form a run prints last: correct,
// attempted, failed and metrics.
func (r *Result) Summary() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

// MetricDef names a metric, its unit and which direction is better.
type MetricDef struct {
	Name, Unit, Better string
}

// EndToEnd are the metrics of an untraced run, as a user sees them.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower"},
	{"op_s", "s", "lower"},
	{"op_tail_s", "s", "lower"},
	{"analysed_mips", "Minstr/s", "higher"},
	{"host_slowdown_x", "x", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// Workload is one benchmark workload.
type Workload struct {
	Name string
	Why  string
	// Clients is how many closed-loop clients issue operations at once.
	Clients int
	new     func(Options) runner
}

// Workloads lists every workload in report order.
var Workloads = []Workload{
	{
		Name:    "live-profile",
		Why:     "the tquad -config path: native and live tQUAD runs alternate, loading vm, pin and core only",
		Clients: 1,
		new:     func(o Options) runner { return &liveProfile{studyGuest: studyGuest{opt: o}} },
	},
	{
		Name:    "slice-cache-sweep",
		Why:     "3 slice intervals x 3 cache hierarchies replayed off one recording: decode-heavy, and the only study workload that runs memsim",
		Clients: 1,
		new:     func(o Options) runner { return &sliceCacheSweep{studyGuest: studyGuest{opt: o}} },
	},
	{
		Name:    "paper-eval",
		Why:     "the whole wfsstudy evaluation, 13 configurations plus phases and tables: QUAD and its shadow memory take half its CPU",
		Clients: 1,
		new:     func(o Options) runner { return &paperEval{studyGuest: studyGuest{opt: o}} },
	},
	{
		Name:    "daemon-jobs",
		Why:     "two HTTP clients submit small seeded sweeps to the daemon: per-job trace encode, fsync and artifact writes",
		Clients: 2,
		new:     func(o Options) runner { return &daemonJobs{opt: o} },
	},
}

// Lookup returns the named workload.
func Lookup(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// runner is one workload's implementation.
type runner interface {
	// setup does the work every operation depends on.  Run times five
	// calls and keeps the state of the last.
	setup() error
	// prepare computes the reference outputs operations are checked
	// against.  It is not timed.
	prepare() error
	// op runs and checks one operation for client c.
	op(tr *Tracer, req int64, c int) (opSample, error)
	// native runs and checks the guest natively once, returning its
	// time.  Clients run one before their first operation and one after
	// each, so every operation is bracketed by native runs measured
	// under the same machine conditions.
	native(tr *Tracer, req int64) (time.Duration, error)
	// guest returns the study whose guest the per-layer ladder measures.
	guest() *study.Study
	// digest hashes the run's simulated outputs.
	digest() string
	close()
}

// tracedPrinter is a runner with more to print in a traced run, given
// the ladder and the median untraced operation time.
type tracedPrinter interface {
	printTraced(opt Options, lad *ladder, opS float64) error
}

// opSample is one completed operation.
type opSample struct {
	dur     time.Duration // what the user waited for
	native  time.Duration // mean of the two native runs bracketing it
	configs int           // profiler configurations it analysed
	instr   uint64        // guest instructions in each configuration
}

// setupRepeats is how many times set-up is timed; setup_s is the median.
const setupRepeats = 5

// Run runs one workload once.  Operations that fail or return wrong
// outputs count in Result.Failed; an error means the run could not be
// measured at all.
func Run(opt Options) (*Result, error) {
	w, ok := Lookup(opt.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.Workload)
	}
	r := w.new(opt)
	defer r.close()

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := r.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := r.prepare(); err != nil {
		return nil, fmt.Errorf("%s: reference outputs: %w", w.Name, err)
	}
	res := &Result{Workload: w.Name, Seed: opt.Seed, Metrics: make(map[string]Metric)}
	opt.logf("%s seed=%d seconds=%g trace=%v gomaxprocs=%d\n",
		w.Name, opt.Seed, opt.Seconds, opt.Trace, runtime.GOMAXPROCS(0))

	if opt.Trace {
		if err := runTraced(opt, w, r, res); err != nil {
			return nil, err
		}
	} else {
		runtime.GC()
		heap := startHeapSampler()
		recs := measure(r, w.Clients, opt.Seconds, nil)
		peak := heap.Stop()
		endToEnd(opt, w, res, recs, setups, peak)
	}
	res.Digest = r.digest()
	res.Correct = res.Failed == 0
	opt.logf("  attempted %d, failed %d, simulated-output digest %s\n", res.Attempted, res.Failed, res.Digest)
	return res, nil
}

// minOps is the least number of operations a run measures, however long
// they take: enough for a median, and for a traced run to have both
// traced and untraced operations.
const minOps = 3

// opRecord is one attempted operation.
type opRecord struct {
	opSample
	traced bool
	err    error
}

// measure runs closed-loop clients until the budget is spent: each
// client starts its next operation only when the previous one and the
// native run after it are done, and stops when that would end past the
// budget (estimated from its last one), once at least minOps have
// started.  With a tracer, odd-numbered operations run untraced and
// even-numbered ones traced, so the two interleave.
func measure(r runner, clients int, seconds float64, tr *Tracer) []opRecord {
	var (
		mu      sync.Mutex
		recs    []opRecord
		started atomic.Int64
		wg      sync.WaitGroup
	)
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			add := func(rec opRecord) {
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
			prev, err := r.native(nil, 0)
			if err != nil {
				add(opRecord{err: err})
				return
			}
			var last time.Duration
			for {
				n := started.Add(1)
				if n > int64(minOps) && time.Since(t0)+last > time.Duration(seconds*float64(time.Second)) {
					return
				}
				var optr *Tracer
				if tr != nil && n%2 == 0 {
					optr = tr
				}
				t := time.Now()
				s, err := r.op(optr, n, c)
				nat, nerr := r.native(optr, n)
				last = time.Since(t)
				if err == nil {
					err = nerr
				}
				s.native, prev = (prev+nat)/2, nat
				add(opRecord{opSample: s, traced: optr != nil, err: err})
			}
		}(c)
	}
	wg.Wait()
	return recs
}

// tally counts attempts and failures, logging each failure, and returns
// the successful operations.
func tally(opt Options, res *Result, recs []opRecord) []opRecord {
	var ok []opRecord
	for _, rec := range recs {
		res.Attempted++
		if rec.err != nil {
			res.Failed++
			opt.logf("  FAILED: %v\n", rec.err)
			continue
		}
		ok = append(ok, rec)
	}
	return ok
}

// endToEnd fills the end-to-end metrics of an untraced run.
func endToEnd(opt Options, w Workload, res *Result, recs []opRecord, setups []float64, peakHeap float64) {
	ok := tally(opt, res, recs)
	var durs, slowdowns, natives []float64
	var analysed float64
	for _, rec := range ok {
		durs = append(durs, rec.dur.Seconds())
		slowdowns = append(slowdowns, rec.dur.Seconds()/float64(rec.configs)/rec.native.Seconds())
		analysed += float64(rec.configs) * float64(rec.instr)
		natives = append(natives, rec.native.Seconds())
	}
	tailP := TailPercentile(len(durs))
	var busy float64
	for _, d := range durs {
		busy += d
	}
	busy /= float64(w.Clients)
	m := res.Metrics
	setMetric(m, "setup_s", Median(setups))
	setMetric(m, "op_s", Median(durs))
	setMetric(m, "op_tail_s", Percentile(durs, tailP))
	setMetric(m, "analysed_mips", safeDiv(analysed, busy)/1e6)
	setMetric(m, "host_slowdown_x", Median(slowdowns))
	setMetric(m, "peak_heap_mb", peakHeap/1e6)

	samples := map[string]string{
		"setup_s":         fmt.Sprintf("median of %d", len(setups)),
		"op_s":            fmt.Sprintf("median of %d", len(durs)),
		"op_tail_s":       fmt.Sprintf("p%g of %d", tailP, len(durs)),
		"analysed_mips":   fmt.Sprintf("%d ops", len(durs)),
		"host_slowdown_x": fmt.Sprintf("median of %d, native runs median %.4f s", len(slowdowns), Median(natives)),
		"peak_heap_mb":    "live heap, sampled every 10 ms",
	}
	for _, d := range EndToEnd {
		m := res.Metrics[d.Name]
		opt.logf("  %-16s %12.4f %-9s (%s)\n", d.Name, m.Value, m.Unit, samples[d.Name])
	}
	q1, q2, q3 := Quartiles(durs)
	opt.logf("  op durations: min %.4f, q1 %.4f, median %.4f, q3 %.4f, max %.4f s\n",
		Percentile(durs, 0), q1, q2, q3, Percentile(durs, 100))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced is the traced run: the per-layer ladder on the workload's
// guest, then traced and untraced operations interleaved under a CPU
// profile, folded into the per-layer metrics.
func runTraced(opt Options, w Workload, r runner, res *Result) error {
	dir := filepath.Join(opt.TraceDir, fmt.Sprintf("%s-seed%d", w.Name, opt.Seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	lad, err := runLadder(r.guest())
	if err != nil {
		// A failed rung is a wrong or failed layer call: count it and keep
		// going, so the operations still get measured.
		res.Attempted++
		res.Failed++
		opt.logf("  FAILED: ladder: %v\n", err)
		lad = &ladder{}
	}

	prof, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	tr := NewTracer()
	runtime.GC()
	win := openWindow()
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return err
	}
	recs := measure(r, w.Clients, opt.Seconds, tr)
	pprof.StopCPUProfile()
	gcShare, alloc := win.Close()
	if err := prof.Close(); err != nil {
		return err
	}
	ok := tally(opt, res, recs)
	res.Attempted += lad.attempted
	var traced, untraced []float64
	for _, rec := range ok {
		if rec.traced {
			traced = append(traced, rec.dur.Seconds())
		} else {
			untraced = append(untraced, rec.dur.Seconds())
		}
	}

	f, err := os.Open(prof.Name())
	if err != nil {
		return err
	}
	cpu, err := FoldCPU(f)
	f.Close()
	if err != nil {
		return err
	}
	spans := tr.Spans()
	if err := WriteJSONL(filepath.Join(dir, "spans.jsonl"), spans); err != nil {
		return err
	}

	lad.metrics(res.Metrics)
	var cpuTotal float64
	for _, v := range cpu {
		cpuTotal += v
	}
	for _, l := range Layers {
		setMetric(res.Metrics, l+".cpu_share", safeDiv(cpu[l], cpuTotal))
	}
	setMetric(res.Metrics, "runtime.gc_cpu_share", gcShare)
	setMetric(res.Metrics, "runtime.alloc_mb_per_op", safeDiv(alloc, float64(len(recs)))/1e6)
	overhead := 100 * safeDiv(Median(traced)-Median(untraced), Median(untraced))
	setMetric(res.Metrics, "trace_overhead_pct", overhead)

	lad.log(opt)
	if tp, ok := r.(tracedPrinter); ok {
		res.Attempted++
		if err := tp.printTraced(opt, lad, Median(untraced)); err != nil {
			res.Failed++
			opt.logf("  FAILED: %v\n", err)
		}
	}
	opt.logf("  operations: %d untraced (median %.4f s), %d traced (median %.4f s): trace_overhead_pct %.2f%%\n",
		len(untraced), Median(untraced), len(traced), Median(traced), overhead)
	self := SelfTimes(spans)
	opt.logf("  %-9s %10s %10s\n", "layer", "cpu_share", "span self")
	for _, l := range Layers {
		opt.logf("  %-9s %9.1f%% %9.3fs\n", l, 100*safeDiv(cpu[l], cpuTotal), self[l])
	}
	opt.logf("  runtime.gc_cpu_share %.3f, runtime.alloc_mb_per_op %.1f MB\n", gcShare, safeDiv(alloc, float64(len(recs)))/1e6)
	opt.logf("  wrote %s and %s (%d spans)\n", filepath.Join(dir, "spans.jsonl"), prof.Name(), len(spans))
	return nil
}
