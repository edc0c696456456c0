// Package direct implements the paper's comparison baseline: conventional
// GPU sharing without virtualization (Section IV.B.1). Every SPMD process
// initializes the device and creates its own GPU context (paying its
// share of Tinit), then runs its cycle — send data, compute, retrieve
// data — with the device serializing cycles from different contexts and
// charging a context switch whenever ownership changes (Figure 4).
package direct

import (
	"fmt"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
)

// Process is one SPMD process's direct (non-virtualized) GPU attachment.
type Process struct {
	ctx     *gpusim.Context
	spec    *task.Spec
	devIn   cuda.DevPtr
	devOut  cuda.DevPtr
	scratch []cuda.DevPtr
	hostIn  *gpusim.HostBuffer
	hostOut *gpusim.HostBuffer
	kernels []*cuda.Kernel
}

// Attach initializes the device for this process: context creation (the
// per-process share of Tinit), buffer allocation and kernel preparation.
// SwitchCost overrides the architecture's context-switch cost when
// nonzero (the paper's Table II measures per-application switch costs).
func Attach(p *sim.Proc, dev *gpusim.Device, spec *task.Spec, switchCost sim.Duration) (*Process, error) {
	pr := &Process{spec: spec, ctx: dev.CreateContext(p)}
	var err error
	pr.ctx.SwitchCost = switchCost
	if spec.InBytes > 0 {
		if pr.devIn, err = pr.ctx.Malloc(spec.InBytes); err != nil {
			pr.Detach()
			return nil, err
		}
		pr.hostIn = dev.AllocHost(spec.InBytes, false) // pageable: the conventional path
	}
	if spec.OutBytes > 0 {
		if pr.devOut, err = pr.ctx.Malloc(spec.OutBytes); err != nil {
			pr.Detach()
			return nil, err
		}
		pr.hostOut = dev.AllocHost(spec.OutBytes, false)
	}
	if spec.Build != nil {
		b := &task.Buffers{In: pr.devIn, Out: pr.devOut, Alloc: pr.ctx, Scratch: &pr.scratch}
		if pr.kernels, err = spec.Build(b); err != nil {
			pr.Detach()
			return nil, err
		}
		for _, k := range pr.kernels {
			if err := k.Validate(dev.Arch()); err != nil {
				pr.Detach()
				return nil, fmt.Errorf("direct: %w", err)
			}
		}
	}
	return pr, nil
}

// HostIn returns the process's pageable input staging buffer (nil without
// input). Callers fill it before RunCycle in functional mode.
func (pr *Process) HostIn() *gpusim.HostBuffer { return pr.hostIn }

// HostOut returns the output staging buffer.
func (pr *Process) HostOut() *gpusim.HostBuffer { return pr.hostOut }

// RunCycle performs one synchronous GPU execution cycle under this
// process's own context: acquire the device (paying the context switch if
// another context ran last), H2D, kernels, D2H, release. This serializes
// whole cycles across processes exactly as the paper's Figure 4 shows.
func (pr *Process) RunCycle(p *sim.Proc) error {
	pr.ctx.Acquire(p)
	defer pr.ctx.Release()
	if pr.spec.InBytes > 0 {
		pr.ctx.MemcpyH2D(p, pr.devIn, pr.hostIn, pr.spec.InBytes)
	}
	for _, k := range pr.kernels {
		if err := pr.ctx.Launch(p, k, 1); err != nil {
			return err
		}
	}
	if pr.spec.OutBytes > 0 {
		pr.ctx.MemcpyD2H(p, pr.hostOut, pr.devOut, pr.spec.OutBytes)
	}
	return nil
}

// RunPhases runs one cycle like RunCycle but returns the time spent in
// each stage (data in, compute, data out). The micro-benchmark profiler
// uses it to extract the paper's Table II parameters.
func (pr *Process) RunPhases(p *sim.Proc) (tin, tcomp, tout sim.Duration, err error) {
	pr.ctx.Acquire(p)
	defer pr.ctx.Release()
	mark := p.Now()
	if pr.spec.InBytes > 0 {
		pr.ctx.MemcpyH2D(p, pr.devIn, pr.hostIn, pr.spec.InBytes)
	}
	tin = p.Now().Sub(mark)
	mark = p.Now()
	for _, k := range pr.kernels {
		if err = pr.ctx.Launch(p, k, 1); err != nil {
			return tin, 0, 0, err
		}
	}
	tcomp = p.Now().Sub(mark)
	mark = p.Now()
	if pr.spec.OutBytes > 0 {
		pr.ctx.MemcpyD2H(p, pr.hostOut, pr.devOut, pr.spec.OutBytes)
	}
	tout = p.Now().Sub(mark)
	return tin, tcomp, tout, nil
}

// Detach frees the process's device resources.
func (pr *Process) Detach() {
	if pr.devIn != 0 {
		_ = pr.ctx.Free(pr.devIn)
		pr.devIn = 0
	}
	if pr.devOut != 0 {
		_ = pr.ctx.Free(pr.devOut)
		pr.devOut = 0
	}
	for _, s := range pr.scratch {
		_ = pr.ctx.Free(s)
	}
	pr.scratch = nil
	pr.ctx.Destroy()
}
