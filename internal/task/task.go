// Package task defines the device-agnostic description of a GPU task —
// how much data it stages each way and how to build its kernel sequence
// once device buffers exist. Both execution paths of the paper share it:
// the virtualized path (gvm/vgpu) and the conventional direct-sharing
// baseline (direct).
package task

import "gpuvirt/internal/cuda"

// Allocator allocates device memory; gpusim.Context implements it.
type Allocator interface {
	Malloc(n int64) (cuda.DevPtr, error)
}

// Buffers gives a kernel builder access to the task's device buffers.
type Buffers struct {
	In, Out cuda.DevPtr
	Alloc   Allocator
	Scratch *[]cuda.DevPtr // extra allocations, freed at teardown
}

// NewScratch allocates an extra device buffer owned by the task.
func (b *Buffers) NewScratch(n int64) (cuda.DevPtr, error) {
	p, err := b.Alloc.Malloc(n)
	if err != nil {
		return 0, err
	}
	*b.Scratch = append(*b.Scratch, p)
	return p, nil
}

// KernelBuilder constructs a task's kernel sequence once its device
// buffers are allocated.
type KernelBuilder func(b *Buffers) ([]*cuda.Kernel, error)

// Spec describes one SPMD process's GPU task.
type Spec struct {
	Name     string
	InBytes  int64 // bytes staged host->device per cycle
	OutBytes int64 // bytes staged device->host per cycle
	Build    KernelBuilder
	// WritesIn says a kernel of the task writes its input buffer (an
	// in-place transform). The virtualized path backs a task's device
	// input with the staging the client writes, so that H2D moves nothing;
	// a task that writes it gets a private device input instead, which H2D
	// refills from staging every cycle, or a re-run would start from the
	// last run's leftovers.
	WritesIn bool
}
