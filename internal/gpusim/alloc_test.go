package gpusim

import (
	"fmt"
	"testing"
	"testing/quick"

	"gpuvirt/internal/cuda"
)

func TestAllocBasic(t *testing.T) {
	a := NewAllocator(1<<20, 256)
	p1, err := a.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == 0 {
		t.Fatal("allocator returned the null DevPtr")
	}
	if uint64(p1)%256 != 0 {
		t.Fatalf("pointer %#x not 256-aligned", uint64(p1))
	}
	if a.InUse() != 1024 {
		t.Fatalf("InUse = %d, want 1024 (rounded)", a.InUse())
	}
	p2, err := a.Alloc(500)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p1 {
		t.Fatal("overlapping allocations")
	}
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p2); err != nil {
		t.Fatal(err)
	}
	if a.InUse() != 0 || len(a.used) != 0 {
		t.Fatalf("allocator not empty after frees: %d bytes, %d allocs", a.InUse(), len(a.used))
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocRejectsBadSizes(t *testing.T) {
	a := NewAllocator(1<<20, 256)
	if _, err := a.Alloc(0); err == nil {
		t.Fatal("Alloc(0) succeeded")
	}
	if _, err := a.Alloc(-1); err == nil {
		t.Fatal("Alloc(-1) succeeded")
	}
}

func TestAllocOOM(t *testing.T) {
	a := NewAllocator(4096, 256)
	if _, err := a.Alloc(4096); err == nil {
		t.Fatal("allocation of full space should fail (first 256 bytes reserved)")
	}
	p, err := a.Alloc(3840)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1); err == nil {
		t.Fatal("allocation beyond capacity succeeded")
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(3840); err != nil {
		t.Fatalf("allocation after free failed: %v", err)
	}
}

func TestFreeErrors(t *testing.T) {
	a := NewAllocator(1<<20, 256)
	if err := a.Free(cuda.DevPtr(256)); err == nil {
		t.Fatal("free of never-allocated pointer succeeded")
	}
	p, _ := a.Alloc(100)
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); err == nil {
		t.Fatal("double free succeeded")
	}
}

func TestAllocCoalescing(t *testing.T) {
	a := NewAllocator(1<<20, 256)
	var ps []cuda.DevPtr
	for i := 0; i < 10; i++ {
		p, err := a.Alloc(1024)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	// Free in an interleaved order and verify coalescing via invariants.
	for _, i := range []int{1, 3, 5, 7, 9, 0, 2, 4, 6, 8} {
		if err := a.Free(ps[i]); err != nil {
			t.Fatal(err)
		}
		if err := a.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.free) != 1 {
		t.Fatalf("free list has %d spans after freeing everything, want 1", len(a.free))
	}
	// The whole space (minus the reserved page) must be allocatable again.
	if _, err := a.Alloc(1<<20 - 256); err != nil {
		t.Fatalf("cannot reallocate full space: %v", err)
	}
}

func TestAllocPanicsOnBadConfig(t *testing.T) {
	for _, fn := range []func(){
		func() { NewAllocator(100, 256) },  // total <= align
		func() { NewAllocator(1024, 0) },   // align < 1
		func() { NewAllocator(1024, 100) }, // not a power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: random alloc/free sequences keep all allocations disjoint and
// the free list coherent.
func TestQuickAllocatorInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		a := NewAllocator(1<<18, 256)
		var live []cuda.DevPtr
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 { // free a pseudo-random live ptr
				i := int(op/3) % len(live)
				if err := a.Free(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			} else {
				size := int64(op%4096) + 1
				p, err := a.Alloc(size)
				if err != nil {
					continue // OOM is fine
				}
				live = append(live, p)
			}
			if err := a.checkInvariants(); err != nil {
				return false
			}
		}
		// All live allocations must be mutually disjoint.
		for i := range live {
			si := a.used[live[i]]
			for j := i + 1; j < len(live); j++ {
				sj := a.used[live[j]]
				lo, hi := int64(live[i]), int64(live[i])+si
				lo2, hi2 := int64(live[j]), int64(live[j])+sj
				if lo < hi2 && lo2 < hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// checkInvariants verifies the free list is sorted, coalesced, in-range
// and disjoint from allocations.
func (a *Allocator) checkInvariants() error {
	var freeTotal int64
	for i, s := range a.free {
		if s.size <= 0 || s.off < a.align || s.off+s.size > a.total {
			return fmt.Errorf("span %d out of range: %+v", i, s)
		}
		if i > 0 {
			prev := a.free[i-1]
			if prev.off+prev.size > s.off {
				return fmt.Errorf("spans %d,%d overlap", i-1, i)
			}
			if prev.off+prev.size == s.off {
				return fmt.Errorf("spans %d,%d not coalesced", i-1, i)
			}
		}
		freeTotal += s.size
	}
	if freeTotal+a.inUse.Load() != a.total-a.align {
		return fmt.Errorf("accounting: free %d + used %d != %d", freeTotal, a.inUse.Load(), a.total-a.align)
	}
	return nil
}
