// Package cuda provides a CUDA-like host programming framework for the GPU
// simulator: grid/block geometry, kernel descriptors with both a functional
// implementation (the kernel really computes its result on the host) and a
// cost model (cycles of work per thread, used by the simulator's timing
// engine), plus typed views of device memory.
//
// Functional kernels are written at *block* granularity: the function is
// invoked once per thread block and loops over the block's threads itself.
// This preserves the CUDA decomposition (indexing by blockIdx/threadIdx)
// while staying efficient in Go.
//
// Functional execution comes in two flavors. Kernel.RunFunctional is the
// serial reference: every block in deterministic grid order on the
// calling goroutine. Executor fans a launch's blocks out across a bounded
// worker pool in contiguous chunks; for kernels whose blocks write
// disjoint memory (the common CUDA discipline) the result is bit-identical
// to the serial path, and kernels that need sequential block order declare
// Kernel.SerialOnly to opt out. See Executor for the full contract.
package cuda

import (
	"fmt"

	"gpuvirt/internal/fermi"
)

// Dim3 is a CUDA dim3: a 3-dimensional extent. Zero components are
// treated as 1 by Norm.
type Dim3 struct{ X, Y, Z int }

// Dim returns a Dim3 with the given extents; y and z default to 1 when 0.
func Dim(x int, yz ...int) Dim3 {
	d := Dim3{X: x, Y: 1, Z: 1}
	if len(yz) > 0 {
		d.Y = yz[0]
	}
	if len(yz) > 1 {
		d.Z = yz[1]
	}
	return d.Norm()
}

// Norm replaces zero components with 1.
func (d Dim3) Norm() Dim3 {
	if d.X == 0 {
		d.X = 1
	}
	if d.Y == 0 {
		d.Y = 1
	}
	if d.Z == 0 {
		d.Z = 1
	}
	return d
}

// Count returns X*Y*Z.
func (d Dim3) Count() int {
	d = d.Norm()
	return d.X * d.Y * d.Z
}

// Flat converts the coordinate to a flat index within extent e
// (x-major, CUDA convention: idx = (z*e.Y + y)*e.X + x).
func (d Dim3) Flat(e Dim3) int {
	e = e.Norm()
	return (d.Z*e.Y+d.Y)*e.X + d.X
}

// String formats the dim as "XxYxZ" (suppressing trailing 1s).
func (d Dim3) String() string {
	d = d.Norm()
	switch {
	case d.Z != 1:
		return fmt.Sprintf("%dx%dx%d", d.X, d.Y, d.Z)
	case d.Y != 1:
		return fmt.Sprintf("%dx%d", d.X, d.Y)
	default:
		return fmt.Sprintf("%d", d.X)
	}
}

// DevPtr is a device memory address (0 is the null pointer).
type DevPtr uint64

// Memory is the view of device memory that functional kernels receive.
// In timing-only simulations Bytes returns nil and kernels must not be
// executed functionally.
type Memory interface {
	// Bytes returns a mutable slice aliasing n bytes of device memory at p.
	Bytes(p DevPtr, n int64) []byte
}

// BlockCtx is the execution context handed to a functional kernel for one
// thread block. A serial run reuses the one BlockCtx its kernel keeps, each
// executor worker fills one of its own, and only BlockIdx is rewritten
// between blocks, so a body must not retain its BlockCtx (or a pointer into
// it) past the call, and must not mutate it.
type BlockCtx struct {
	BlockIdx Dim3 // this block's coordinates within the grid
	GridDim  Dim3
	BlockDim Dim3
	Mem      Memory
	Args     []any
}

// GlobalBase returns the flat global index of thread (0,0,0) of this block
// for 1-D launches: blockIdx.X * blockDim.X.
func (c *BlockCtx) GlobalBase() int { return c.BlockIdx.X * c.BlockDim.X }

// Strip returns the global element range [lo, hi) this block owns in a 1-D
// elementwise launch over n elements, one element per thread: the block's
// BlockDim.X elements from GlobalBase, clipped to n. A block wholly past n
// gets lo == hi.
func (c *BlockCtx) Strip(n int) (lo, hi int) {
	lo = c.GlobalBase()
	hi = min(lo+c.BlockDim.X, n)
	return min(lo, hi), hi
}

// Float32Strip views elements [lo, hi) of the float32 array argument i
// points to. Resolving only the strip keeps the view's length the block's
// own, so a body that re-slices its views to one common length indexes
// them with no per-element bounds check.
func (c *BlockCtx) Float32Strip(i, lo, hi int) []float32 {
	return Float32s(c.Mem, c.Ptr(i)+DevPtr(4*lo), hi-lo)
}

// Arg returns argument i (panics if out of range, like a bad kernel call).
func (c *BlockCtx) Arg(i int) any { return c.Args[i] }

// Ptr returns argument i as a DevPtr.
func (c *BlockCtx) Ptr(i int) DevPtr { return c.Args[i].(DevPtr) }

// Int returns argument i as an int.
func (c *BlockCtx) Int(i int) int { return c.Args[i].(int) }

// Float64Arg returns argument i as a float64.
func (c *BlockCtx) Float64Arg(i int) float64 { return c.Args[i].(float64) }

// BlockFunc is a functional kernel body invoked once per thread block.
type BlockFunc func(c *BlockCtx)

// Kernel is a launchable GPU kernel: geometry, per-block resource
// footprint, a cost model for the timing engine, and an optional
// functional body.
type Kernel struct {
	Name  string
	Grid  Dim3
	Block Dim3

	// Resource footprint per block (occupancy inputs).
	RegsPerThread     int
	SharedMemPerBlock int

	// Cost model: SP-lane cycles of work per thread, and device-memory
	// traffic per thread in bytes (enforces a bandwidth floor on the
	// kernel's duration).
	CyclesPerThread   float64
	MemBytesPerThread float64

	// Func optionally computes the kernel's real result. It may be nil
	// for timing-only workloads.
	Func BlockFunc
	Args []any

	// SerialOnly marks a functional body whose blocks do NOT write
	// disjoint memory — cross-block reductions, scans, or anything that
	// relies on the serial host loop's block order. Executor always runs
	// such kernels through the serial reference path. Kernels leaving
	// this false promise block-disjoint writes and may be executed by any
	// number of workers with bit-identical results.
	SerialOnly bool

	// bc is the block context every serial run of the kernel reuses, so a
	// launch allocates none; one kernel therefore runs serially on one
	// goroutine at a time, as a launch on a device's owner does.
	bc BlockCtx
}

// Threads returns the total number of threads in the launch.
func (k *Kernel) Threads() int { return k.Grid.Count() * k.Block.Count() }

// Blocks returns the total number of thread blocks in the launch.
func (k *Kernel) Blocks() int { return k.Grid.Count() }

// Resources returns the occupancy inputs for this kernel.
func (k *Kernel) Resources() fermi.BlockResources {
	return fermi.BlockResources{
		ThreadsPerBlock:   k.Block.Count(),
		RegsPerThread:     k.RegsPerThread,
		SharedMemPerBlock: k.SharedMemPerBlock,
	}
}

// Validate reports configuration errors in the launch.
func (k *Kernel) Validate(arch fermi.Arch) error {
	if k.Grid.Count() < 1 {
		return fmt.Errorf("cuda: kernel %q: empty grid", k.Name)
	}
	if k.Block.Count() < 1 {
		return fmt.Errorf("cuda: kernel %q: empty block", k.Name)
	}
	if k.CyclesPerThread < 0 || k.MemBytesPerThread < 0 {
		return fmt.Errorf("cuda: kernel %q: negative cost model", k.Name)
	}
	if _, err := arch.Occupancy(k.Resources()); err != nil {
		return fmt.Errorf("cuda: kernel %q: %w", k.Name, err)
	}
	return nil
}

// TotalMemBytes returns the cost model's total device-memory traffic.
func (k *Kernel) TotalMemBytes() float64 {
	return float64(k.Threads()) * k.MemBytesPerThread
}

// RunFunctional executes the kernel body for every block in the grid, in
// deterministic block order, against mem. It is the host-side reference
// execution used by tests and functional examples. It returns an error if
// the kernel has no functional body.
func (k *Kernel) RunFunctional(mem Memory) error {
	if k.Func == nil {
		return fmt.Errorf("cuda: kernel %q has no functional body", k.Name)
	}
	k.runBlockRange(&k.bc, mem, 0, k.Blocks())
	return nil
}
