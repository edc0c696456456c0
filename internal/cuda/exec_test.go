package cuda

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// sliceMem is a trivial Memory backed by one flat byte slice; DevPtr is an
// offset into it.
type sliceMem []byte

func (m sliceMem) Bytes(p DevPtr, n int64) []byte { return m[p : int64(p)+n] }

// markKernel writes each block's flat index (as a byte) into its own slot,
// the canonical disjoint-writes kernel.
func markKernel(grid Dim3) (*Kernel, sliceMem) {
	g := grid.Norm()
	mem := make(sliceMem, g.Count())
	k := &Kernel{
		Name:  "mark",
		Grid:  grid,
		Block: Dim(1),
		Func: func(c *BlockCtx) {
			i := c.BlockIdx.Flat(c.GridDim)
			c.Mem.Bytes(DevPtr(i), 1)[0] = byte(i)
		},
	}
	return k, mem
}

func TestExecutorCoversAllBlocks(t *testing.T) {
	grids := []Dim3{Dim(1), Dim(7), Dim(64), Dim(5, 3), Dim(4, 3, 2), Dim(33, 2, 5)}
	for _, grid := range grids {
		for _, workers := range []int{1, 2, 3, 8, 17} {
			t.Run(fmt.Sprintf("grid=%v/workers=%d", grid, workers), func(t *testing.T) {
				k, mem := markKernel(grid)
				if err := NewExecutor(workers).Run(k, mem); err != nil {
					t.Fatal(err)
				}
				for i, v := range mem {
					if v != byte(i) {
						t.Fatalf("block %d wrote %d, want %d", i, v, byte(i))
					}
				}
			})
		}
	}
}

func TestExecutorMatchesSerial(t *testing.T) {
	k, want := markKernel(Dim(100))
	if err := k.RunFunctional(want); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		k2, got := markKernel(Dim(100))
		if err := NewExecutor(workers).Run(k2, got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: byte %d differs: %d vs %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestExecutorSerialOnlyFallback(t *testing.T) {
	// A running-sum kernel is order-dependent: correct only if blocks run
	// in ascending flat order on one goroutine. SerialOnly must guarantee
	// that even on a multi-worker executor.
	var order []int
	k := &Kernel{
		Name:       "scan",
		Grid:       Dim(64),
		Block:      Dim(1),
		SerialOnly: true,
		Func: func(c *BlockCtx) {
			order = append(order, c.BlockIdx.X)
		},
	}
	if err := NewExecutor(8).Run(k, sliceMem(nil)); err != nil {
		t.Fatal(err)
	}
	if len(order) != 64 {
		t.Fatalf("ran %d blocks, want 64", len(order))
	}
	for i, b := range order {
		if b != i {
			t.Fatalf("block order[%d] = %d, want %d (SerialOnly must run in serial order)", i, b, i)
		}
	}
}

func TestExecutorSmallLaunchStaysSerial(t *testing.T) {
	// Launches with fewer than two blocks per worker take the serial path;
	// an append with no synchronization would race otherwise, and -race
	// verifies this.
	var order []int
	k := &Kernel{
		Name:  "tiny",
		Grid:  Dim(7),
		Block: Dim(1),
		Func:  func(c *BlockCtx) { order = append(order, c.BlockIdx.X) },
	}
	if err := NewExecutor(4).Run(k, sliceMem(nil)); err != nil {
		t.Fatal(err)
	}
	if len(order) != 7 {
		t.Fatalf("ran %d blocks, want 7", len(order))
	}
}

func TestExecutorNoBody(t *testing.T) {
	k := &Kernel{Name: "timing-only", Grid: Dim(8), Block: Dim(32)}
	if err := NewExecutor(4).Run(k, nil); err == nil {
		t.Fatal("want error for kernel without functional body")
	}
}

func TestExecutorNilAndSerialBehaveSerial(t *testing.T) {
	var e *Executor
	if e.Workers() != 1 {
		t.Fatalf("nil executor Workers() = %d, want 1", e.Workers())
	}
	k, mem := markKernel(Dim(32))
	if err := e.Run(k, mem); err != nil {
		t.Fatal(err)
	}
	if Serial.Workers() != 1 {
		t.Fatalf("Serial.Workers() = %d, want 1", Serial.Workers())
	}
}

func TestExecutorPanicPropagates(t *testing.T) {
	var ran atomic.Int64
	k := &Kernel{
		Name:  "boom",
		Grid:  Dim(64),
		Block: Dim(1),
		Func: func(c *BlockCtx) {
			ran.Add(1)
			if c.BlockIdx.X == 40 {
				panic("kernel fault at block 40")
			}
		},
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("want panic to propagate to the launching goroutine")
		}
		if s, ok := r.(string); !ok || s != "kernel fault at block 40" {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	_ = NewExecutor(4).Run(k, sliceMem(nil))
}

func TestNewExecutorDefaultsToGOMAXPROCS(t *testing.T) {
	if w := NewExecutor(0).Workers(); w < 1 {
		t.Fatalf("NewExecutor(0).Workers() = %d, want >= 1", w)
	}
	if w := NewExecutor(5).Workers(); w != 5 {
		t.Fatalf("NewExecutor(5).Workers() = %d, want 5", w)
	}
}

// TestRunAllocsIndependentOfGrid: a serial Run shares one BlockCtx across
// its block range, so what it allocates does not grow with the grid.
func TestRunAllocsIndependentOfGrid(t *testing.T) {
	allocs := func(blocks int) float64 {
		k, mem := markKernel(Dim(blocks))
		var m Memory = mem // box once, outside the measured call
		return testing.AllocsPerRun(20, func() {
			if err := Serial.Run(k, m); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(1), allocs(4096)
	if one != many || many > 1 {
		t.Fatalf("allocs per Run: %v for 1 block, %v for 4096; want equal and <= 1", one, many)
	}
}

// TestBlockCtxStrip: a block's strip is its BlockDim.X elements clipped to
// n, and empty — never inverted — for a block wholly past n.
func TestBlockCtxStrip(t *testing.T) {
	for _, tc := range []struct{ block, n, lo, hi int }{
		{0, 10, 0, 4}, {2, 10, 8, 10}, {2, 12, 8, 12}, {3, 10, 10, 10}, {0, 0, 0, 0},
	} {
		c := BlockCtx{BlockIdx: Dim3{X: tc.block}, BlockDim: Dim(4)}
		if lo, hi := c.Strip(tc.n); lo != tc.lo || hi != tc.hi {
			t.Errorf("block %d of 4 threads over n=%d: strip [%d,%d), want [%d,%d)", tc.block, tc.n, lo, hi, tc.lo, tc.hi)
		}
	}
}
