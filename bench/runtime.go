package bench

import (
	"runtime/metrics"
	"sync"
	"time"
)

const (
	mHeapLive   = "/gc/heap/live:bytes"
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mIdleCPU    = "/cpu/classes/idle:cpu-seconds"
)

// readMetrics samples the named runtime metrics as float64s.
func readMetrics(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(names))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// heapSampler records the peak of the live heap — the bytes the last GC
// found reachable — read every 10 ms until stopped.  Unlike the heap's
// total size, which includes garbage not yet collected, it does not
// depend on when collections happen to run.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.peak = readMetrics(mHeapLive)[0]
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.peak = max(h.peak, readMetrics(mHeapLive)[0])
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	return max(h.peak, readMetrics(mHeapLive)[0])
}

// cpuWindow brackets a stretch of work to report the GC's share of the
// busy CPU time and the bytes allocated in it.
type cpuWindow struct{ start []float64 }

var windowMetrics = []string{mGCCPU, mTotalCPU, mIdleCPU, mAllocBytes}

func openWindow() cpuWindow { return cpuWindow{readMetrics(windowMetrics...)} }

// Close returns the GC's share of busy CPU and the bytes allocated since
// the window opened.  The runtime refreshes its CPU estimates at each
// GC, so the share is exact only up to the last collection.
func (w cpuWindow) Close() (gcShare, allocBytes float64) {
	end := readMetrics(windowMetrics...)
	gc := end[0] - w.start[0]
	busy := (end[1] - w.start[1]) - (end[2] - w.start[2])
	if busy > 0 {
		gcShare = gc / busy
	}
	return gcShare, end[3] - w.start[3]
}
