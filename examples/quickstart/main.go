// Quickstart: share one simulated Fermi GPU among four SPMD worker
// processes through the GPU Virtualization Manager.
//
// Each worker sees its own Virtual GPU, sends a vector-addition task
// through the REQ/SND/STR/STP/RCV/RLS protocol, and gets real results
// back — the device runs in functional mode. The run prints each
// worker's turnaround in virtual time and the device statistics showing
// zero context switches.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/gvm"
	"gpuvirt/internal/kernels"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
	"gpuvirt/internal/vgpu"
)

const (
	workers = 4
	n       = 1 << 20 // 1M floats per worker
)

func main() {
	env := sim.NewEnv()
	// ExecWorkers sizes the pool that runs functional kernel bodies:
	// 0 = one worker per core, 1 = the serial reference path. Results are
	// bit-identical either way (DESIGN.md §3, SerialOnly contract).
	dev, err := gpusim.New(env, gpusim.Config{Arch: fermi.TeslaC2070(), Functional: true, ExecWorkers: 0})
	if err != nil {
		log.Fatal(err)
	}

	// One manager owns the device's only context; its STR barrier spans
	// all four workers so their streams flush together. The workers reach
	// it over the paper's transport (message queues, a segment each).
	mgr := gvm.New(env, gvm.Config{Device: dev, Parties: workers})
	mgr.Start()
	host := vgpu.Serve(mgr, vgpu.Config{})

	spec := &task.Spec{
		Name:     "vecadd",
		InBytes:  2 * n * 4,
		OutBytes: n * 4,
		Build: func(b *task.Buffers) ([]*cuda.Kernel, error) {
			return []*cuda.Kernel{kernels.NewVecAdd(b.In, b.In+cuda.DevPtr(n*4), b.Out, n)}, nil
		},
	}

	for w := 0; w < workers; w++ {
		w := w
		env.Go(func(p *sim.Proc) {
			p.Wait(mgr.Ready())
			start := p.Now()

			v, err := host.Connect(p, spec)
			if err != nil {
				log.Fatalf("worker %d: %v", w, err)
			}
			in := make([]float32, 2*n)
			for i := 0; i < n; i++ {
				in[i] = float32(i)
				in[n+i] = float32(w * 1000)
			}
			out := make([]byte, n*4)
			if err := v.RunCycle(p, cuda.HostFloat32Bytes(in), out); err != nil {
				log.Fatalf("worker %d: %v", w, err)
			}
			res := cuda.Float32s(byteMem(out), 0, n)
			for i := 0; i < n; i++ {
				if res[i] != float32(i)+float32(w*1000) {
					log.Fatalf("worker %d: wrong result at %d: %g", w, i, res[i])
				}
			}
			if err := v.Release(p); err != nil {
				log.Fatalf("worker %d: %v", w, err)
			}
			fmt.Printf("worker %d: %d elements verified, turnaround %.2f ms (virtual)\n",
				w, n, p.Now().Sub(start).Seconds()*1e3)
		})
	}

	if err := env.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndevice: %d kernels, %d context switches (virtualization keeps it at zero)\n",
		dev.KernelsRun, dev.ContextSwitches)
	fmt.Printf("manager: %d sessions served, %d barrier flushes\n",
		mgr.SessionsOpened(), mgr.Flushes())
}

type byteMem []byte

func (b byteMem) Bytes(p cuda.DevPtr, n int64) []byte { return b[p : int64(p)+n] }
