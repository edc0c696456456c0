package gpusim

import (
	"testing"

	"gpuvirt/internal/cuda"
)

// FuzzAllocator drives the allocator with an arbitrary op tape: byte
// 0-159 allocates (size derived from the byte), 160-255 frees a live
// pointer. Invariants must hold after every operation.
func FuzzAllocator(f *testing.F) {
	f.Add([]byte{10, 20, 200, 30, 210, 220})
	f.Add([]byte{0, 0, 0, 160, 160, 160})
	f.Add([]byte{255, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		a := NewAllocator(1<<16, 256)
		var live []cuda.DevPtr
		for i, op := range ops {
			if op >= 160 && len(live) > 0 {
				idx := int(op) % len(live)
				if err := a.Free(live[idx]); err != nil {
					t.Fatalf("op %d: free: %v", i, err)
				}
				live = append(live[:idx], live[idx+1:]...)
			} else {
				size := int64(op)*37 + 1
				p, err := a.Alloc(size)
				if err != nil {
					continue // OOM is fine
				}
				live = append(live, p)
			}
			if err := a.checkInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		for _, p := range live {
			if err := a.Free(p); err != nil {
				t.Fatalf("final free: %v", err)
			}
		}
		if a.InUse() != 0 || len(a.used) != 0 {
			t.Fatalf("leaked: %d bytes, %d allocations", a.InUse(), len(a.used))
		}
	})
}
