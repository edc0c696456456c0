package gpusim

import (
	"fmt"
	"sort"
	"sync/atomic"

	"gpuvirt/internal/cuda"
)

// Allocator manages the device memory address space with a first-fit
// free-list. Allocations are aligned to Align bytes; address 0 is never
// handed out (it is the null DevPtr), so the first Align bytes are
// reserved.
type Allocator struct {
	total int64
	align int64
	free  []span // sorted by offset, coalesced
	used  map[cuda.DevPtr]int64
	// inUse is atomic: all mutation happens on the owner goroutine, but
	// InUse() feeds telemetry (Device.MemInUse, the gvm_mem_in_use_bytes
	// gauge) read from scraper goroutines.
	inUse atomic.Int64
	// reserved tracks logical bytes promised to sessions, independent of
	// what is physically resident right now. A session that has been
	// evicted to host memory keeps its reservation; reserved therefore may
	// exceed total under overcommit. Atomic for the same telemetry reason
	// as inUse.
	reserved atomic.Int64
	// evictor, when set, is asked to make room whenever a first-fit pass
	// fails. It returns true if it freed anything (Alloc retries), false
	// when nothing more can be evicted (Alloc reports OOM).
	evictor func(need int64) bool
}

type span struct{ off, size int64 }

// NewAllocator returns an allocator over total bytes with the given
// alignment (power of two, >= 1).
func NewAllocator(total, align int64) *Allocator {
	if total <= align {
		panic("gpusim: allocator total must exceed alignment")
	}
	if align < 1 || align&(align-1) != 0 {
		panic("gpusim: alignment must be a positive power of two")
	}
	return &Allocator{
		total: total,
		align: align,
		free:  []span{{off: align, size: total - align}},
		used:  make(map[cuda.DevPtr]int64),
	}
}

// InUse returns the number of bytes currently allocated (after rounding).
func (a *Allocator) InUse() int64 { return a.inUse.Load() }

// Resident is InUse under its residency-layer name: bytes physically
// backed by device memory right now.
func (a *Allocator) Resident() int64 { return a.inUse.Load() }

// Reserved returns the logical bytes promised to sessions. Under
// overcommit this may exceed Total(); the difference between Reserved
// and Resident is what has been evicted to host snapshots (or reserved
// but not yet touched).
func (a *Allocator) Reserved() int64 { return a.reserved.Load() }

// Reserve records n logical bytes as promised. Reservations are pure
// accounting — they do not consume address space until Alloc.
func (a *Allocator) Reserve(n int64) { a.reserved.Add(n) }

// Unreserve returns n logical bytes to the pool.
func (a *Allocator) Unreserve(n int64) {
	if a.reserved.Add(-n) < 0 {
		panic("gpusim: Unreserve below zero")
	}
}

// SetEvictor installs the callback Alloc invokes when a first-fit pass
// fails. The callback must free at least one allocation (via Free) and
// return true to make Alloc retry, or return false to let the OOM
// surface. It runs on the owner goroutine, inside Alloc.
func (a *Allocator) SetEvictor(fn func(need int64) bool) { a.evictor = fn }

// RoundUp returns n rounded up to the allocator's alignment — the size
// Alloc would actually consume for an n-byte request.
func (a *Allocator) RoundUp(n int64) int64 {
	return (n + a.align - 1) / a.align * a.align
}

// LargestFree returns the size of the largest contiguous free span —
// the biggest single allocation that could succeed right now. The free
// list is short in practice (coalesced), so a linear scan is fine.
func (a *Allocator) LargestFree() int64 {
	var max int64
	for _, s := range a.free {
		if s.size > max {
			max = s.size
		}
	}
	return max
}

// Alloc reserves n bytes and returns the device address, or an
// out-of-memory error. Zero or negative sizes are rejected. When an
// evictor is installed, a failed first-fit pass asks it to make room
// and retries until it either fits or the evictor reports nothing left
// to evict.
func (a *Allocator) Alloc(n int64) (cuda.DevPtr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("gpusim: alloc of %d bytes", n)
	}
	size := (n + a.align - 1) / a.align * a.align
	for {
		if ptr, ok := a.tryAlloc(size); ok {
			return ptr, nil
		}
		if a.evictor == nil || !a.evictor(size) {
			break
		}
	}
	// Report the largest contiguous span, not total-minus-inUse: under
	// fragmentation the sum of free spans overstates what a single
	// allocation can get.
	return 0, fmt.Errorf("gpusim: out of device memory: need %d bytes, largest contiguous span %d (%d free total in %d spans)",
		size, a.LargestFree(), a.total-a.align-a.inUse.Load(), len(a.free))
}

// tryAlloc is one first-fit pass over the free list.
func (a *Allocator) tryAlloc(size int64) (cuda.DevPtr, bool) {
	for i, s := range a.free {
		if s.size < size {
			continue
		}
		ptr := cuda.DevPtr(s.off)
		if s.size == size {
			a.free = append(a.free[:i], a.free[i+1:]...)
		} else {
			a.free[i] = span{off: s.off + size, size: s.size - size}
		}
		a.used[ptr] = size
		a.inUse.Add(size)
		return ptr, true
	}
	return 0, false
}

// Free releases the allocation at ptr. Freeing an unknown address is an
// error (double free / wild pointer).
func (a *Allocator) Free(ptr cuda.DevPtr) error {
	size, ok := a.used[ptr]
	if !ok {
		return fmt.Errorf("gpusim: free of unallocated device pointer %#x", uint64(ptr))
	}
	delete(a.used, ptr)
	a.inUse.Add(-size)
	s := span{off: int64(ptr), size: size}
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].off > s.off })
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = s
	// Coalesce with successor, then predecessor.
	if i+1 < len(a.free) && a.free[i].off+a.free[i].size == a.free[i+1].off {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].off+a.free[i-1].size == a.free[i].off {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	return nil
}
