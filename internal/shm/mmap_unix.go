//go:build unix

package shm

import (
	"os"
	"syscall"
)

// mapFile maps n bytes of f shared read-write, advised onto huge pages from
// 2 MiB up (adviseHuge). A zero-length mapping is invalid on most unixes, so
// empty segments are rejected.
func mapFile(f *os.File, n int64) ([]byte, error) {
	if n <= 0 || int64(int(n)) != n {
		return nil, syscall.EINVAL
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(n), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err == nil {
		adviseHuge(b)
	}
	return b, err
}

func unmapFile(b []byte) error { return syscall.Munmap(b) }
