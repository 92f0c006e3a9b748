package main

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// memfdCloexec is MFD_CLOEXEC.
const memfdCloexec = 1

// newMemFile creates an anonymous file on the kernel's internal tmpfs
// with memfd_create(2). It has no name in any directory: it lives in the
// process's memory and is gone once every descriptor to it is closed.
// Writes and fsyncs on it are real syscalls that reach no device, as on
// a file under /dev/shm.
func newMemFile(name string) (*os.File, error) {
	p, err := syscall.BytePtrFromString(name)
	if err != nil {
		return nil, err
	}
	fd, _, errno := syscall.Syscall(sysMemfdCreate, uintptr(unsafe.Pointer(p)), memfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("memfd_create", errno)
	}
	return os.NewFile(fd, name), nil
}

// memFilePath is a path that opens f anew, for APIs that take a path.
func memFilePath(f *os.File) string { return fmt.Sprintf("/proc/self/fd/%d", f.Fd()) }
