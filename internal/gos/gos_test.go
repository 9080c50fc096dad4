package gos_test

import (
	"testing"

	"tquad/internal/gos"
	"tquad/internal/isa"
	"tquad/internal/vm"
)

// call sets up registers and issues one syscall on a fresh machine.
func call(t *testing.T, o *gos.OS, m *vm.Machine, num int32, args ...uint64) uint64 {
	t.Helper()
	for i, a := range args {
		m.Regs[1+i] = a
	}
	if err := o.Syscall(m, num); err != nil {
		t.Fatalf("syscall %d: %v", num, err)
	}
	return m.Regs[1]
}

func newMachine() *vm.Machine {
	m := vm.New()
	return m
}

func TestOpenReadSequence(t *testing.T) {
	o := gos.New()
	o.AddFile("data.bin", []byte("hello world"))
	m := newMachine()
	m.Mem.Write(0x100, []byte("data.bin"))

	fd := call(t, o, m, gos.SysOpen, 0x100, 8, gos.OpenRead)
	if int64(fd) < 0 {
		t.Fatalf("open failed: %d", int64(fd))
	}
	n := call(t, o, m, gos.SysRead, fd, 0x200, 5)
	if n != 5 {
		t.Fatalf("read %d bytes, want 5", n)
	}
	buf := make([]byte, 5)
	m.Mem.Read(0x200, buf)
	if string(buf) != "hello" {
		t.Fatalf("read %q", buf)
	}
	// Remaining bytes, then EOF.
	if n := call(t, o, m, gos.SysRead, fd, 0x300, 100); n != 6 {
		t.Fatalf("second read = %d, want 6", n)
	}
	if n := call(t, o, m, gos.SysRead, fd, 0x300, 100); n != 0 {
		t.Fatalf("read at EOF = %d, want 0", n)
	}
	call(t, o, m, gos.SysClose, fd)
	if err := o.Syscall(m, gos.SysRead); err == nil {
		t.Fatalf("read on closed fd succeeded")
	}
	if o.ReadsTotal != 11 {
		t.Fatalf("ReadsTotal = %d, want 11", o.ReadsTotal)
	}
}

func TestOpenMissingFile(t *testing.T) {
	o := gos.New()
	m := newMachine()
	m.Mem.Write(0x100, []byte("nope"))
	fd := call(t, o, m, gos.SysOpen, 0x100, 4, gos.OpenRead)
	if int64(fd) != -1 {
		t.Fatalf("open(missing) = %d, want -1", int64(fd))
	}
}

func TestWriteCreatesAndGrows(t *testing.T) {
	o := gos.New()
	m := newMachine()
	m.Mem.Write(0x100, []byte("out.bin"))
	fd := call(t, o, m, gos.SysOpen, 0x100, 7, gos.OpenWrite)
	m.Mem.Write(0x200, []byte("abcdef"))
	call(t, o, m, gos.SysWrite, fd, 0x200, 6)
	// Seek back and overwrite the middle.
	call(t, o, m, gos.SysSeek, fd, 2)
	m.Mem.Write(0x300, []byte("XY"))
	call(t, o, m, gos.SysWrite, fd, 0x300, 2)
	got, ok := o.File("out.bin")
	if !ok || string(got) != "abXYef" {
		t.Fatalf("file contents %q, ok=%v", got, ok)
	}
	// Open for write truncates.
	call(t, o, m, gos.SysOpen, 0x100, 7, gos.OpenWrite)
	got, _ = o.File("out.bin")
	if len(got) != 0 {
		t.Fatalf("re-open for write did not truncate: %q", got)
	}
}

func TestWriteToReadOnlyFD(t *testing.T) {
	o := gos.New()
	o.AddFile("r.bin", []byte("x"))
	m := newMachine()
	m.Mem.Write(0x100, []byte("r.bin"))
	fd := call(t, o, m, gos.SysOpen, 0x100, 5, gos.OpenRead)
	m.Regs[1], m.Regs[2], m.Regs[3] = fd, 0x200, 1
	if err := o.Syscall(m, gos.SysWrite); err == nil {
		t.Fatalf("write to read-only fd succeeded")
	}
}

func TestAllocAlignmentAndProgression(t *testing.T) {
	o := gos.New()
	m := newMachine()
	p1 := call(t, o, m, gos.SysAlloc, 13)
	p2 := call(t, o, m, gos.SysAlloc, 8)
	if p1%8 != 0 || p2%8 != 0 {
		t.Fatalf("allocations not 8-byte aligned: %#x %#x", p1, p2)
	}
	if p2 != p1+16 { // 13 rounds up to 16
		t.Fatalf("allocator stride: p1=%#x p2=%#x", p1, p2)
	}
	if o.HeapUsed() != 24 {
		t.Fatalf("HeapUsed = %d, want 24", o.HeapUsed())
	}
}

func TestConsole(t *testing.T) {
	o := gos.New()
	m := newMachine()
	for _, c := range []byte("ok") {
		call(t, o, m, gos.SysPutc, uint64(c))
	}
	call(t, o, m, gos.SysPuti, uint64(42))
	if o.Console() != "ok42\n" {
		t.Fatalf("console = %q", o.Console())
	}
}

func TestClockAndExit(t *testing.T) {
	o := gos.New()
	m := newMachine()
	m.ICount = 12345
	if got := call(t, o, m, gos.SysClock); got != 12345 {
		t.Fatalf("clock = %d", got)
	}
	call(t, o, m, gos.SysExit, 3)
	if !m.Halted || m.ExitCode != 3 {
		t.Fatalf("exit: halted=%v code=%d", m.Halted, m.ExitCode)
	}
}

func TestUnknownSyscall(t *testing.T) {
	o := gos.New()
	m := newMachine()
	if err := o.Syscall(m, 9999); err == nil {
		t.Fatalf("unknown syscall accepted")
	}
}

// TestGuestLevelIO drives the syscalls from actual guest code, end to
// end.
func TestGuestLevelIO(t *testing.T) {
	o := gos.New()
	o.AddFile("in", []byte{10, 20, 30})
	m := vm.New()
	m.SetSyscallHandler(o)
	var buf []byte
	for _, in := range []isa.Instr{
		// open("in", 2 bytes... name at 0x100)
		{Op: isa.OpLdiu, Rd: 1, Imm: 0x100},
		{Op: isa.OpLdi, Rd: 2, Imm: 2},
		{Op: isa.OpLdi, Rd: 3, Imm: gos.OpenRead},
		{Op: isa.OpSyscall, Imm: gos.SysOpen},
		{Op: isa.OpMov, Rd: 8, Rs1: 1}, // fd
		// read(fd, 0x200, 3)
		{Op: isa.OpMov, Rd: 1, Rs1: 8},
		{Op: isa.OpLdiu, Rd: 2, Imm: 0x200},
		{Op: isa.OpLdi, Rd: 3, Imm: 3},
		{Op: isa.OpSyscall, Imm: gos.SysRead},
		// sum the three bytes
		{Op: isa.OpLdiu, Rd: 9, Imm: 0x200},
		{Op: isa.OpLd1, Rd: 10, Rs1: 9, Imm: 0},
		{Op: isa.OpLd1, Rd: 11, Rs1: 9, Imm: 1},
		{Op: isa.OpLd1, Rd: 12, Rs1: 9, Imm: 2},
		{Op: isa.OpAdd, Rd: 10, Rs1: 10, Rs2: 11},
		{Op: isa.OpAdd, Rd: 10, Rs1: 10, Rs2: 12},
		{Op: isa.OpHalt, Rs1: 10},
	} {
		buf = in.EncodeTo(buf)
	}
	m.Mem.Write(0x1000, buf)
	m.Mem.Write(0x100, []byte("in"))
	m.Reset(0x1000)
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if m.ExitCode != 60 {
		t.Fatalf("guest sum = %d, want 60", m.ExitCode)
	}
}
