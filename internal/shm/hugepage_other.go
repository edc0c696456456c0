//go:build !linux

package shm

// adviseHuge is a no-op: only Linux has transparent huge pages to advise
// (hugepage_linux.go).
func adviseHuge(b []byte) {}
