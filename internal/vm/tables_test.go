package vm_test

import (
	"runtime"
	"testing"

	"tquad/internal/isa"
	"tquad/internal/pin"
	"tquad/internal/vm"
	"tquad/internal/wfs"
)

// allocBytes returns the heap bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCodeTablesSizedToLoadedCode: the code cache and the block cache
// hold one slot per instruction of the loaded images, not one per
// instruction-sized step of the ~8 MB gap between the WFS main image
// (0x10000) and libc (0x800000); so a machine plus an instrumentation
// engine costs well under a megabyte to set up, where tables spanning
// the gap cost ~91 MB.
func TestCodeTablesSizedToLoadedCode(t *testing.T) {
	w, err := wfs.NewWorkload(wfs.Small())
	if err != nil {
		t.Fatal(err)
	}
	var m *vm.Machine
	got := allocBytes(func() {
		m, _ = w.NewMachine()
		pin.NewEngine(m)
	})
	if got >= 1<<20 {
		t.Errorf("NewMachine + pin.NewEngine allocated %d bytes, want < 1 MiB", got)
	}
	code := 0
	for _, img := range w.Prog.Images() {
		code += len(img.Code) / isa.InstrSize
	}
	if cache, blocks := vm.CodeSlots(m); cache != code || blocks != code {
		t.Errorf("code cache %d slots, block cache %d, want %d each (the guest's instructions)", cache, blocks, code)
	}
	// Reset clears the block table in place.
	if got := allocBytes(func() { m.Reset(w.Prog.EntryPC) }); got != 0 {
		t.Errorf("Reset allocated %d bytes", got)
	}
}
