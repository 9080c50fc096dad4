package core

import "testing"

// The accumulator's contract: slice indices derive from the monotonic
// instruction clock, so at() is only ever called with non-decreasing
// slice values for a given kernel.
func TestKernelSeriesAt(t *testing.T) {
	ks := &kernelSeries{name: "k"}
	p := ks.at(0)
	p.Instr = 7
	if again := ks.at(0); again != p {
		t.Fatal("same slice did not reuse the cached point")
	}
	ks.at(3).ReadIncl = 8
	ks.at(9).WriteIncl = 16
	if len(ks.points) != 3 {
		t.Fatalf("points = %d, want 3", len(ks.points))
	}
	for i, want := range []uint64{0, 3, 9} {
		if ks.points[i].Slice != want {
			t.Errorf("points[%d].Slice = %d, want %d", i, ks.points[i].Slice, want)
		}
	}
	if ks.cur != &ks.points[2] {
		t.Error("cur does not point at the last appended point")
	}
	if ks.points[0].Instr != 7 || ks.points[1].ReadIncl != 8 || ks.points[2].WriteIncl != 16 {
		t.Errorf("accumulated values lost: %+v", ks.points)
	}
}

// BenchmarkSeriesAt is the micro-scale ablation: the dense accumulator's
// hot path (cached-pointer hit) against the map lookup it replaced.
func BenchmarkSeriesAt(b *testing.B) {
	b.Run("dense", func(b *testing.B) {
		ks := &kernelSeries{name: "k"}
		for i := 0; i < b.N; i++ {
			ks.at(uint64(i)>>10).Instr++
		}
	})
	b.Run("map", func(b *testing.B) {
		a := newMapAccum()
		ks := a.series[a.id("k")]
		for i := 0; i < b.N; i++ {
			slice := uint64(i) >> 10
			pt := ks.points[slice]
			if pt == nil {
				pt = &SlicePoint{Slice: slice}
				ks.points[slice] = pt
			}
			pt.Instr++
		}
	})
}
