package vgpu

import (
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/sim"
)

func TestCommandStreamFullCycle(t *testing.T) {
	const n = 1024
	env, _, mgr, host := newRig(t, true, 1, nil)
	env.Go("client", func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		v, err := host.Connect(p, vecSpec(n))
		if err != nil {
			t.Error(err)
			return
		}
		in := make([]float32, 2*n)
		for i := 0; i < n; i++ {
			in[i] = 1
			in[n+i] = float32(i)
		}
		out := make([]byte, n*4)
		cs := v.NewCommandStream().EnqueueCycle(cuda.HostFloat32Bytes(in), out)
		if cs.Len() != 3 {
			t.Errorf("Len = %d, want 3", cs.Len())
		}
		if err := cs.Execute(p); err != nil {
			t.Error(err)
			return
		}
		res := cuda.Float32s(memBytes(out), 0, n)
		for i := 0; i < n; i++ {
			if res[i] != 1+float32(i) {
				t.Errorf("out[%d] = %g", i, res[i])
				return
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCommandStreamRepeatedExecution(t *testing.T) {
	const n = 256
	env, dev, mgr, host := newRig(t, true, 1, nil)
	env.Go("client", func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		v, err := host.Connect(p, vecSpec(n))
		if err != nil {
			t.Error(err)
			return
		}
		in := make([]float32, 2*n)
		out := make([]byte, n*4)
		cs := v.NewCommandStream().EnqueueCycle(cuda.HostFloat32Bytes(in), out)
		for iter := 0; iter < 3; iter++ {
			for i := 0; i < n; i++ {
				in[i] = float32(iter)
				in[n+i] = float32(i)
			}
			if err := cs.Execute(p); err != nil {
				t.Errorf("iter %d: %v", iter, err)
				return
			}
			res := cuda.Float32s(memBytes(out), 0, n)
			for i := 0; i < n; i++ {
				if res[i] != float32(iter)+float32(i) {
					t.Errorf("iter %d: out[%d] = %g", iter, i, res[i])
					return
				}
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dev.KernelsRun != 3 {
		t.Fatalf("KernelsRun = %d, want 3", dev.KernelsRun)
	}
}

func TestCommandStreamStopsAtFirstError(t *testing.T) {
	env, _, mgr, host := newRig(t, false, 1, nil)
	env.Go("client", func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		v, err := host.Connect(p, vecSpec(1024))
		if err != nil {
			t.Error(err)
			return
		}
		// Recv before any run: the manager rejects RCV, Execute stops.
		cs := v.NewCommandStream().EnqueueRecv(nil).EnqueueRun()
		if err := cs.Execute(p); err == nil {
			t.Error("Execute succeeded through an invalid command order")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCommandStreamReset(t *testing.T) {
	env, _, mgr, host := newRig(t, false, 1, nil)
	env.Go("client", func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		v, err := host.Connect(p, vecSpec(64))
		if err != nil {
			t.Error(err)
			return
		}
		cs := v.NewCommandStream().EnqueueCycle(nil, nil)
		cs.Reset()
		if cs.Len() != 0 {
			t.Errorf("Len after Reset = %d", cs.Len())
		}
		// Executing an empty stream is a no-op.
		if err := cs.Execute(p); err != nil {
			t.Errorf("empty Execute: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
