package gpusim

import (
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/sim"
)

// Repro: a heavier zero-work kernel pending behind a lighter multi-wave
// kernel. At the light kernel's wave boundary, preempt demotes it and
// admits the zero-work kernel after the zero-work drain pass already ran.
func TestReproZeroWorkPreempt(t *testing.T) {
	arch := fermi.TeslaC2070()
	arch.MaxConcurrentKernels = 1
	env := sim.NewEnv()
	dev := MustNew(env, Config{Arch: arch})
	var doneA, doneZ bool
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		c.Acquire(p)
		defer c.Release()
		a := &cuda.Kernel{Name: "light", Grid: cuda.Dim(420), Block: cuda.Dim(256), CyclesPerThread: 1e5}
		z := &cuda.Kernel{Name: "heavyzero", Grid: cuda.Dim(4), Block: cuda.Dim(256), CyclesPerThread: 0}
		evA, err := startLaunch(c, p, a, 1)
		if err != nil {
			t.Errorf("launch a: %v", err)
			return
		}
		evZ, err := startLaunch(c, p, z, 4)
		if err != nil {
			t.Errorf("launch z: %v", err)
			return
		}
		p.Wait(evZ)
		doneZ = true
		p.Wait(evA)
		doneA = true
	})
	if err := env.Run(); err != nil {
		t.Fatalf("env.Run: %v (doneZ=%v doneA=%v)", err, doneZ, doneA)
	}
	if !doneZ || !doneA {
		t.Fatalf("kernels did not complete: doneZ=%v doneA=%v", doneZ, doneA)
	}
}
