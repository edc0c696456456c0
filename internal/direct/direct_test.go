package direct

import (
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/kernels"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
)

func vecSpec(n int) *task.Spec {
	return &task.Spec{
		Name:     "vecadd",
		InBytes:  int64(2 * n * 4),
		OutBytes: int64(n * 4),
		Build: func(b *task.Buffers) ([]*cuda.Kernel, error) {
			return []*cuda.Kernel{kernels.NewVecAdd(b.In, b.In+cuda.DevPtr(n*4), b.Out, n)}, nil
		},
	}
}

func TestAttachRunDetachFunctional(t *testing.T) {
	env := sim.NewEnv()
	dev := gpusim.MustNew(env, gpusim.Config{Arch: fermi.TeslaC2070(), Functional: true})
	const n = 1024
	env.Go(func(p *sim.Proc) {
		pr, err := Attach(p, dev, vecSpec(n), 0)
		if err != nil {
			t.Error(err)
			return
		}
		in := cuda.Float32s(memOf(pr.HostIn().Data()), 0, 2*n)
		for i := 0; i < n; i++ {
			in[i] = float32(i)
			in[n+i] = 2
		}
		if err := pr.RunCycle(p); err != nil {
			t.Error(err)
			return
		}
		out := cuda.Float32s(memOf(pr.HostOut().Data()), 0, n)
		for i := 0; i < n; i++ {
			if out[i] != float32(i)+2 {
				t.Errorf("out[%d] = %g", i, out[i])
				return
			}
		}
		pr.Detach()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dev.MemInUse() != 0 {
		t.Fatalf("%d bytes leaked after Detach", dev.MemInUse())
	}
}

type sliceMem []byte

func (s sliceMem) Bytes(p cuda.DevPtr, n int64) []byte { return s[p : int64(p)+n] }

func memOf(b []byte) cuda.Memory { return sliceMem(b) }

func TestAttachRejectsOOM(t *testing.T) {
	env := sim.NewEnv()
	dev := gpusim.MustNew(env, gpusim.Config{Arch: fermi.TeslaC2070()})
	env.Go(func(p *sim.Proc) {
		spec := &task.Spec{Name: "huge", InBytes: 64 << 30, OutBytes: 8}
		if _, err := Attach(p, dev, spec, 0); err == nil {
			t.Error("Attach accepted 64 GiB on a 6 GiB card")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dev.MemInUse() != 0 {
		t.Fatal("failed Attach leaked device memory")
	}
}

func TestAttachRejectsBadKernel(t *testing.T) {
	env := sim.NewEnv()
	dev := gpusim.MustNew(env, gpusim.Config{Arch: fermi.TeslaC2070()})
	env.Go(func(p *sim.Proc) {
		spec := &task.Spec{
			Name: "bad", InBytes: 8, OutBytes: 8,
			Build: func(b *task.Buffers) ([]*cuda.Kernel, error) {
				return []*cuda.Kernel{{Name: "bad", Grid: cuda.Dim(1), Block: cuda.Dim(4096)}}, nil
			},
		}
		if _, err := Attach(p, dev, spec, 0); err == nil {
			t.Error("Attach accepted an unlaunchable kernel")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCyclesSerializeAcrossProcesses(t *testing.T) {
	// Two direct processes running one cycle each: the second's cycle
	// must start only after the first's whole cycle (Figure 4), with one
	// context switch recorded.
	env := sim.NewEnv()
	dev := gpusim.MustNew(env, gpusim.Config{Arch: fermi.TeslaC2070()})
	const n = 1 << 22
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		env.Go(func(p *sim.Proc) {
			pr, err := Attach(p, dev, vecSpec(n), 0)
			if err != nil {
				t.Error(err)
				return
			}
			if err := pr.RunCycle(p); err != nil {
				t.Error(err)
				return
			}
			ends = append(ends, p.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dev.ContextSwitches != 1 {
		t.Fatalf("ContextSwitches = %d, want 1", dev.ContextSwitches)
	}
	arch := dev.Arch()
	cycle := arch.TransferTime(2*n*4, true, false) + arch.TransferTime(n*4, false, false)
	gap := ends[1].Sub(ends[0])
	if gap < cycle {
		t.Fatalf("second cycle finished %v after the first; a full cycle is %v — overlap detected", gap, cycle)
	}
}

func TestRunPhasesSplitsTheCycle(t *testing.T) {
	env := sim.NewEnv()
	dev := gpusim.MustNew(env, gpusim.Config{Arch: fermi.TeslaC2070()})
	const n = 1 << 22
	env.Go(func(p *sim.Proc) {
		pr, err := Attach(p, dev, vecSpec(n), 0)
		if err != nil {
			t.Error(err)
			return
		}
		tin, tcomp, tout, err := pr.RunPhases(p)
		if err != nil {
			t.Error(err)
			return
		}
		arch := dev.Arch()
		if want := arch.TransferTime(2*n*4, true, false); tin != want {
			t.Errorf("tin = %v, want %v", tin, want)
		}
		if want := arch.TransferTime(n*4, false, false); tout != want {
			t.Errorf("tout = %v, want %v", tout, want)
		}
		if tcomp <= 0 {
			t.Errorf("tcomp = %v", tcomp)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchCostOverride(t *testing.T) {
	env := sim.NewEnv()
	dev := gpusim.MustNew(env, gpusim.Config{Arch: fermi.TeslaC2070()})
	override := 500 * sim.Millisecond
	var starts [2]sim.Time
	var ends [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		env.Go(func(p *sim.Proc) {
			pr, err := Attach(p, dev, &task.Spec{Name: "t", InBytes: 8, OutBytes: 8}, override)
			if err != nil {
				t.Error(err)
				return
			}
			starts[i] = p.Now()
			if err := pr.RunCycle(p); err != nil {
				t.Error(err)
			}
			ends[i] = p.Now()
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// The second process's cycle includes the 500 ms override switch.
	d1 := ends[1].Sub(ends[0])
	if d1 < 500*sim.Millisecond {
		t.Fatalf("second cycle gap %v, want >= 500ms override switch", d1)
	}
}
