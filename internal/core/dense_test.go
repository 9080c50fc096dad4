package core_test

import (
	"errors"
	"testing"

	"tquad/internal/core"
	"tquad/internal/pin"
	"tquad/internal/vm"
)

// TestEveryEventOnSliceBoundary pins the boundary-crossing path: with a
// slice interval of one instruction, every traced event sits exactly on
// a slice boundary, so each one must rotate the accumulator and charge
// exactly one snapshot.
func TestEveryEventOnSliceBoundary(t *testing.T) {
	m := buildStreamer(t)
	e := pin.NewEngine(m)
	tool := core.Attach(e, core.Options{SliceInterval: 1, IncludeStack: true})
	if err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	prof := tool.Snapshot()
	if tool.Snapshots != tool.TraceCalls {
		t.Errorf("interval 1: snapshots %d != trace calls %d (every event is a boundary)",
			tool.Snapshots, tool.TraceCalls)
	}
	// One-instruction slices: no point can accumulate more than one
	// event's traffic, and slice indices must stay within the run.
	for _, k := range prof.Kernels {
		for _, p := range k.Points {
			if p.Slice >= prof.NumSlices {
				t.Fatalf("%s: point slice %d beyond run (%d slices)", k.Name, p.Slice, prof.NumSlices)
			}
		}
	}
}

// TestNonContiguousSlicePoints asserts the dense series stays sorted and
// strictly increasing for a kernel that is active in non-contiguous
// slices (the streamer's burst kernel runs three times with idle gaps).
func TestNonContiguousSlicePoints(t *testing.T) {
	prof, _, _ := runTQUAD(t, core.Options{SliceInterval: 400, IncludeStack: false})
	burst, ok := prof.Kernel("burst")
	if !ok {
		t.Fatal("burst missing")
	}
	if len(burst.Points) < 2 {
		t.Fatalf("burst has %d points, want several", len(burst.Points))
	}
	gap := false
	for i := 1; i < len(burst.Points); i++ {
		prev, cur := burst.Points[i-1].Slice, burst.Points[i].Slice
		if cur <= prev {
			t.Fatalf("points not strictly increasing: slice %d after %d", cur, prev)
		}
		if cur > prev+1 {
			gap = true
		}
	}
	if !gap {
		t.Error("burst occupies contiguous slices; expected idle gaps between bursts")
	}
}

// TestEmptyFinalSlice stops the guest mid-way through the compute-only
// idle kernel (instruction budget exhaustion), so the run's final slice
// carries instruction time but no byte traffic.  The snapshot must still
// cover that slice and report no kernel as active in it.
func TestEmptyFinalSlice(t *testing.T) {
	const interval, budget = 500, 10_000
	m := buildStreamer(t)
	e := pin.NewEngine(m)
	tool := core.Attach(e, core.Options{SliceInterval: interval, IncludeStack: false})
	if err := m.Run(budget); !errors.Is(err, vm.ErrFuel) {
		t.Fatalf("err = %v, want ErrFuel", err)
	}
	dense := tool.Snapshot()
	if m.ICount != budget {
		t.Fatalf("ICount = %d, want %d", m.ICount, budget)
	}
	wantSlices := uint64(budget / interval)
	if dense.NumSlices != wantSlices {
		t.Fatalf("NumSlices = %d, want %d", dense.NumSlices, wantSlices)
	}
	last := dense.NumSlices - 1
	if active := dense.ActiveSet(last); len(active) != 0 {
		t.Errorf("final slice %d has active kernels %v; idle loop writes only stack", last, active)
	}
	// Dense expansion must still produce a full-length, zero-tailed
	// series for the burst kernel.
	burst, ok := dense.Kernel("burst")
	if !ok {
		t.Fatal("burst missing")
	}
	series := burst.Series(dense.NumSlices, false, false)
	if uint64(len(series)) != dense.NumSlices {
		t.Fatalf("series length %d, want %d", len(series), dense.NumSlices)
	}
	if series[last] != 0 {
		t.Errorf("burst traffic %d in the empty final slice", series[last])
	}
}
