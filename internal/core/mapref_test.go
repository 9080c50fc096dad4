// The original map-based slice accumulator, kept as a test oracle: one
// map[uint64]*SlicePoint lookup per charge.  TestDenseMatchesMapAccum
// feeds it and the production dense accumulator identical charge
// streams and requires identical kernel profiles; BenchmarkSeriesAt
// measures what the map lookup used to cost.
package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// mapSeries is one kernel's temporal data keyed by slice index.
type mapSeries struct {
	name   string
	points map[uint64]*SlicePoint
}

// mapAccum accumulates every kernel's series through per-slice map
// lookups.
type mapAccum struct {
	ids    map[string]uint16
	series []*mapSeries
}

func newMapAccum() *mapAccum {
	return &mapAccum{
		ids:    make(map[string]uint16),
		series: []*mapSeries{nil}, // id 0 reserved
	}
}

func (a *mapAccum) id(name string) uint16 {
	if id, ok := a.ids[name]; ok {
		return id
	}
	id := uint16(len(a.series))
	a.ids[name] = id
	a.series = append(a.series, &mapSeries{name: name, points: make(map[uint64]*SlicePoint)})
	return id
}

// add charges delta instructions and size bytes to the kernel's slice
// accumulator.  A size of zero is the instruction-time-only path
// (chargeInstr) and leaves the byte counters untouched.
func (a *mapAccum) add(name string, slice, delta, size uint64, isRead, isStack bool) {
	ks := a.series[a.id(name)]
	pt := ks.points[slice]
	if pt == nil {
		pt = &SlicePoint{Slice: slice}
		ks.points[slice] = pt
	}
	pt.Instr += delta
	if size == 0 {
		return
	}
	if isRead {
		pt.ReadIncl += size
		if !isStack {
			pt.ReadExcl += size
		}
	} else {
		pt.WriteIncl += size
		if !isStack {
			pt.WriteExcl += size
		}
	}
}

// kernels materialises the per-kernel profiles (points sorted by slice,
// kernels by name).
func (a *mapAccum) kernels() []*KernelProfile {
	var out []*KernelProfile
	for id := 1; id < len(a.series); id++ {
		ks := a.series[id]
		kp := &KernelProfile{Name: ks.name}
		for _, pt := range ks.points {
			kp.Points = append(kp.Points, *pt)
		}
		sort.Slice(kp.Points, func(i, j int) bool { return kp.Points[i].Slice < kp.Points[j].Slice })
		kp.finish()
		out = append(out, kp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// denseCharge applies one charge at clock ic to the tool's dense
// accumulator the way account does: through the pending run, turned when
// the kernel or the slice changes, as a traced access, or, with size 0,
// as the early-discard path's instruction time alone.
func (t *Tool) denseCharge(name string, ic, delta, size uint64, isRead, isStack bool) {
	a := t.attribution
	if size == 0 {
		if name != a.pendName || ic >= a.skipBound {
			a.turn(name, ic, false)
		}
		a.pend.Instr += delta
		return
	}
	if name != a.pendName || ic >= a.traceBound {
		a.turn(name, ic, true)
	}
	pt := &a.pend
	pt.Instr += delta
	if isRead {
		pt.ReadIncl += size
		if !isStack {
			pt.ReadExcl += size
		}
	} else {
		pt.WriteIncl += size
		if !isStack {
			pt.WriteExcl += size
		}
	}
}

// TestDenseMatchesMapAccum is the accumulator equivalence test: a seeded
// random charge stream — kernels switching and returning, instruction
// clock jumps across several slices, and stack accesses that the
// stack-excluding mode charges as instruction time only — goes to both
// the dense accumulator and the map oracle, which must produce identical
// kernel profiles.  At interval 1 every charge lands on a new slice.
func TestDenseMatchesMapAccum(t *testing.T) {
	kernels := []string{"main", "fft1d", "bitrev", "wav_store", "sub_1000"}
	for _, interval := range []uint64{1, 100, 250, 256, 400, 499, 500, 10_000} {
		for _, incl := range []bool{true, false} {
			t.Run(fmt.Sprintf("iv%d_stack%v", interval, incl), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(interval)))
				dense := Attach(&fakeHost{}, Options{SliceInterval: interval})
				ref := newMapAccum()
				var ic, lastIC uint64
				name := kernels[0]
				for i := 0; i < 20_000; i++ {
					switch r := rng.Intn(100); {
					case r < 2:
						ic += uint64(rng.Intn(5_000)) // jump across slices
					case r < 60:
						ic++
					default:
						ic += uint64(rng.Intn(8))
					}
					if rng.Intn(10) == 0 {
						name = kernels[rng.Intn(len(kernels))]
					}
					delta := ic - lastIC
					lastIC = ic
					slice := ic / interval
					isRead, isStack := rng.Intn(2) == 0, rng.Intn(3) == 0
					size := uint64(1) << rng.Intn(5)
					if !incl && isStack {
						if delta == 0 {
							continue // chargeInstr's no-time early return
						}
						size = 0
					}
					dense.denseCharge(name, ic, delta, size, isRead, isStack)
					ref.add(name, slice, delta, size, isRead, isStack)
				}
				got, want := dense.assemble(), ref.kernels()
				if len(got) != len(want) {
					t.Fatalf("kernel counts: dense %d, map %d", len(got), len(want))
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("kernel %s differs:\ndense %+v\nmap   %+v", got[i].Name, got[i], want[i])
					}
				}
			})
		}
	}
}
