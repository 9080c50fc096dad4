package core_test

import (
	"testing"

	"tquad/internal/core"
)

func TestSlicePointTotal(t *testing.T) {
	p := core.SlicePoint{ReadIncl: 10, ReadExcl: 6, WriteIncl: 4, WriteExcl: 2}
	if p.Total(true) != 14 {
		t.Errorf("Total(incl) = %d", p.Total(true))
	}
	if p.Total(false) != 8 {
		t.Errorf("Total(excl) = %d", p.Total(false))
	}
}

func TestKernelPointAccessor(t *testing.T) {
	k := &core.KernelProfile{
		Name: "k",
		Points: []core.SlicePoint{
			{Slice: 3, ReadIncl: 7, Instr: 10},
			{Slice: 4, Instr: 3}, // instruction time only: no traffic
			{Slice: 9, WriteIncl: 5, Instr: 20},
		},
	}
	if !k.Active(3) || !k.Active(9) || k.Active(4) || k.Active(5) {
		t.Errorf("Active misclassifies")
	}
}

func TestProfileKernelLookup(t *testing.T) {
	p := &core.Profile{Kernels: []*core.KernelProfile{{Name: "a"}, {Name: "b"}}}
	if _, ok := p.Kernel("b"); !ok {
		t.Errorf("Kernel(b) missing")
	}
	if _, ok := p.Kernel("zzz"); ok {
		t.Errorf("Kernel(zzz) found")
	}
}

func TestStatsEmptyKernel(t *testing.T) {
	k := &core.KernelProfile{Name: "silent"}
	s := k.Stats(true, 1000)
	if s.AvgRead != 0 || s.AvgWrite != 0 || s.MaxRW != 0 {
		t.Errorf("empty kernel stats = %+v", s)
	}
}

func TestSeriesMetricSelection(t *testing.T) {
	k := &core.KernelProfile{
		Points: []core.SlicePoint{
			{Slice: 0, ReadIncl: 1, ReadExcl: 2, WriteIncl: 3, WriteExcl: 4},
		},
	}
	cases := []struct {
		reads, incl bool
		want        uint64
	}{
		{true, true, 1}, {true, false, 2}, {false, true, 3}, {false, false, 4},
	}
	for _, c := range cases {
		if got := k.Series(1, c.reads, c.incl)[0]; got != c.want {
			t.Errorf("Series(reads=%v incl=%v) = %d, want %d", c.reads, c.incl, got, c.want)
		}
	}
	// Points beyond numSlices are dropped, not panicking.
	k.Points = append(k.Points, core.SlicePoint{Slice: 99, ReadIncl: 100})
	if got := k.Series(1, true, true); len(got) != 1 {
		t.Errorf("Series length %d", len(got))
	}
}
