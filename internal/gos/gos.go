// Package gos is the simulated guest operating system: a syscall
// personality for the virtual machine with an in-memory file system, a
// heap allocator, and a handful of process services.
//
// Pin "does not reside in the kernel of the operating system, it can only
// capture user-level code"; accordingly the data copies performed by these
// syscalls happen outside the traced instruction stream and never appear
// in any profile — only the guest-side code that fills or drains the
// buffers does, which is exactly the behaviour of the original tool.
package gos

import (
	"fmt"

	"tquad/internal/vm"
)

// Syscall numbers.
const (
	SysExit  = 1  // r1 = exit code
	SysOpen  = 2  // r1 = name ptr, r2 = name len, r3 = mode -> fd or -1
	SysClose = 3  // r1 = fd
	SysRead  = 4  // r1 = fd, r2 = buf, r3 = n -> bytes read (0 at EOF)
	SysWrite = 5  // r1 = fd, r2 = buf, r3 = n -> bytes written
	SysSeek  = 6  // r1 = fd, r2 = offset -> new offset
	SysAlloc = 7  // r1 = size -> pointer (8-byte aligned), never fails
	SysClock = 8  // -> executed guest instruction count
	SysPutc  = 9  // r1 = byte appended to console
	SysPuti  = 10 // r1 = integer printed to console (decimal + newline)
)

// Open modes.
const (
	OpenRead  = 0
	OpenWrite = 1 // create or truncate
)

// HeapBase is where the guest heap starts.
const HeapBase = 0x4000_0000

// file is one in-memory file.
type file struct {
	data []byte
}

// fd is one open descriptor.
type fd struct {
	f      *file
	off    int
	write  bool
	closed bool
}

// OS implements vm.SyscallHandler.
type OS struct {
	files   map[string]*file
	fds     []*fd
	heapPtr uint64
	console []byte

	// ReadsTotal / WritesTotal count the bytes moved by SysRead/SysWrite,
	// for the I/O accounting tests.
	ReadsTotal  uint64
	WritesTotal uint64
}

// New returns an OS with an empty file system.
func New() *OS {
	return &OS{
		files:   make(map[string]*file),
		heapPtr: HeapBase,
	}
}

// AddFile installs a file in the simulated file system (host side).
func (o *OS) AddFile(name string, data []byte) {
	o.files[name] = &file{data: append([]byte(nil), data...)}
}

// File returns a copy of a file's current contents.
func (o *OS) File(name string) ([]byte, bool) {
	f, ok := o.files[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), f.data...), true
}

// Console returns everything the guest printed.
func (o *OS) Console() string { return string(o.console) }

// HeapUsed returns the number of heap bytes handed out.
func (o *OS) HeapUsed() uint64 { return o.heapPtr - HeapBase }

func (o *OS) lookupFD(n uint64) (*fd, error) {
	if n >= uint64(len(o.fds)) || o.fds[n] == nil || o.fds[n].closed {
		return nil, fmt.Errorf("gos: bad file descriptor %d", n)
	}
	return o.fds[n], nil
}

// Syscall services one OpSyscall trap.
func (o *OS) Syscall(m *vm.Machine, num int32) error {
	a1 := m.Regs[1]
	a2 := m.Regs[2]
	a3 := m.Regs[3]
	switch num {
	case SysExit:
		m.Halted = true
		m.ExitCode = int64(a1)

	case SysOpen:
		name := make([]byte, a2)
		m.Mem.Read(a1, name)
		mode := a3
		f, ok := o.files[string(name)]
		if mode == OpenWrite {
			f = &file{}
			o.files[string(name)] = f
		} else if !ok {
			m.Regs[1] = ^uint64(0) // -1
			return nil
		}
		o.fds = append(o.fds, &fd{f: f, write: mode == OpenWrite})
		m.Regs[1] = uint64(len(o.fds) - 1)

	case SysClose:
		d, err := o.lookupFD(a1)
		if err != nil {
			return err
		}
		d.closed = true
		m.Regs[1] = 0

	case SysRead:
		d, err := o.lookupFD(a1)
		if err != nil {
			return err
		}
		n := int(a3)
		if rem := len(d.f.data) - d.off; n > rem {
			n = rem
		}
		if n < 0 {
			n = 0
		}
		if n > 0 {
			m.Mem.Write(a2, d.f.data[d.off:d.off+n])
			d.off += n
			o.ReadsTotal += uint64(n)
		}
		m.Regs[1] = uint64(n)

	case SysWrite:
		d, err := o.lookupFD(a1)
		if err != nil {
			return err
		}
		if !d.write {
			return fmt.Errorf("gos: write to read-only fd %d", a1)
		}
		n := int(a3)
		buf := make([]byte, n)
		m.Mem.Read(a2, buf)
		// Grow to cover [off, off+n).
		if need := d.off + n; need > len(d.f.data) {
			d.f.data = append(d.f.data, make([]byte, need-len(d.f.data))...)
		}
		copy(d.f.data[d.off:], buf)
		d.off += n
		o.WritesTotal += uint64(n)
		m.Regs[1] = uint64(n)

	case SysSeek:
		d, err := o.lookupFD(a1)
		if err != nil {
			return err
		}
		d.off = int(a2)
		m.Regs[1] = uint64(d.off)

	case SysAlloc:
		size := (a1 + 7) &^ 7
		ptr := o.heapPtr
		o.heapPtr += size
		m.Regs[1] = ptr

	case SysClock:
		m.Regs[1] = m.ICount

	case SysPutc:
		o.console = append(o.console, byte(a1))
		m.Regs[1] = 0

	case SysPuti:
		o.console = append(o.console, []byte(fmt.Sprintf("%d\n", int64(a1)))...)
		m.Regs[1] = 0

	default:
		return fmt.Errorf("gos: unknown syscall %d", num)
	}
	return nil
}
