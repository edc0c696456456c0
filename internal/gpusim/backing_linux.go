package gpusim

import (
	"syscall"
	"unsafe"
)

// hugePage is the transparent huge page of x86-64 (and of arm64 on 4 KiB
// pages): 2 MiB.
const hugePage = 2 << 20

// newBacking returns size zeroed bytes of device memory. From one huge page
// up it starts on a huge-page boundary and its whole huge pages are advised
// MADV_HUGEPAGE before anything touches them, so a fresh arena faults once
// per 2 MiB instead of once per 4 KiB page (EXPERIMENTS "Where the time is,
// part 3"). That gain is a cold daemon's: over recycled heap the runtime
// zeroes the whole object, slack included, before the advice, and a warm
// daemon holds the slack resident (DESIGN §9). The memory is an ordinary Go
// heap object, sliced with len == cap == size: the garbage collector owns
// it, so a swap hands it over and back and a Free drops it like any other
// slice.
func newBacking(size int64) []byte {
	if size < hugePage {
		return make([]byte, size)
	}
	raw := make([]byte, size+hugePage)
	off := -uintptr(unsafe.Pointer(unsafe.SliceData(raw))) & (hugePage - 1)
	b := raw[off : off+uintptr(size) : off+uintptr(size)]
	// Advice only: where THP is absent it fails, and small pages serve.
	_ = syscall.Madvise(b[:size&^(hugePage-1)], syscall.MADV_HUGEPAGE)
	return b
}
