package gpusim

import (
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/sim"
)

func TestParseFaultSpec(t *testing.T) {
	p, err := ParseFaultSpec("gpu=0,after=25,kind=hang")
	if err != nil {
		t.Fatal(err)
	}
	if p.ForGPU(0) == nil {
		t.Fatal("deterministic plan minted no injector for its target gpu")
	}
	if p.ForGPU(1) != nil {
		t.Fatal("gpu=0 plan minted an injector for gpu 1")
	}

	p, err = ParseFaultSpec("rate=0.01,seed=7,kinds=hang|fatal")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if p.ForGPU(i) == nil {
			t.Fatalf("rate plan (gpu unset = all) minted no injector for gpu %d", i)
		}
	}

	for _, bad := range []string{
		"",                         // neither after nor rate
		"gpu=0",                    // no trigger
		"after=3,rate=0.5",         // mixing forms
		"after=3,kind=explodes",    // unknown kind
		"rate=0.5,kinds=hang|nope", // unknown kind in list
		"after",                    // not key=value
		"banana=7,after=1",         // unknown key
		"gpu=zero,after=1",         // unparseable int
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("ParseFaultSpec(%q) accepted a bad spec", bad)
		}
	}
}

func TestFaultPlanNilSafe(t *testing.T) {
	var p *FaultPlan
	if p.ForGPU(0) != nil {
		t.Fatal("nil plan minted an injector")
	}
	var fi *FaultInjector
	fi.tick(nil) // must not panic
}

func TestInjectFaultEscalatesOnly(t *testing.T) {
	_, dev := newTestDevice(t, false)
	var seen []FaultKind
	dev.OnFault(func(k FaultKind) { seen = append(seen, k) })
	dev.InjectFault(XidMemory)
	dev.InjectFault(XidMemory) // same severity: no-op
	dev.InjectFault(XidFatal)
	dev.InjectFault(XidHang) // downgrade: no-op
	if dev.Fault() != XidFatal {
		t.Fatalf("fault = %v, want fatal (escalate-only)", dev.Fault())
	}
	if len(seen) != 2 || seen[0] != XidMemory || seen[1] != XidFatal {
		t.Fatalf("OnFault callbacks saw %v, want [memory fatal]", seen)
	}
}

// TestMemoryFaultFailsMallocsNotCopies pins the evacuability contract:
// a memory-faulted device rejects new allocations but keeps serving
// copies, so the failover engine can always snapshot resident arenas
// device-to-host.
func TestMemoryFaultFailsMallocsNotCopies(t *testing.T) {
	env, dev := newTestDevice(t, false)
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		c.Acquire(p)
		defer c.Release()
		ptr, err := c.Malloc(1024)
		if err != nil {
			t.Errorf("healthy Malloc: %v", err)
			return
		}
		dev.InjectFault(XidMemory)
		if _, err := c.Malloc(1024); err == nil {
			t.Error("Malloc succeeded on a memory-faulted device")
		} else if _, ok := IsFault(err); !ok {
			t.Errorf("Malloc error %v is not a FaultError", err)
		}
		// D2H evacuation still works.
		host := dev.AllocHost(1024, true)
		c.MemcpyD2H(p, host, ptr, 1024)
		// Kernels still launch: memory faults degrade, they do not hang.
		k := &cuda.Kernel{Name: "k", Grid: cuda.Dim(1), Block: cuda.Dim(128), CyclesPerThread: 1e3}
		if err := c.Launch(p, k, 1); err != nil {
			t.Errorf("launch on memory-faulted device: %v", err)
		}
	})
	run(t, env)
}

// TestHangFaultAbortsInFlightKernels pins the abort path: a hang fault
// fires every in-flight kernel's completion event with a *FaultError
// payload, and later launches fail synchronously.
func TestHangFaultAbortsInFlightKernels(t *testing.T) {
	env, dev := newTestDevice(t, false)
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		c.Acquire(p)
		defer c.Release()
		k := &cuda.Kernel{Name: "long", Grid: cuda.Dim(28), Block: cuda.Dim(1024), CyclesPerThread: 1e6}
		done, err := startLaunch(c, p, k, 1)
		if err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		env.Go(func(q *sim.Proc) {
			q.Sleep(sim.Millisecond) // well inside the kernel's runtime
			dev.InjectFault(XidHang)
		})
		v := p.Wait(done)
		err, ok := v.(error)
		if !ok {
			t.Errorf("aborted kernel completed with %v, want a FaultError payload", v)
			return
		}
		fe, ok := IsFault(err)
		if !ok || fe.Kind != XidHang {
			t.Errorf("aborted kernel payload = %v, want xid hang FaultError", err)
		}
		if err := c.Launch(p, k, 1); err == nil {
			t.Error("launch succeeded on a hung device")
		}
	})
	run(t, env)
}

// TestFaultInjectorAfterN checks the deterministic injector: exactly the
// N-th launch trips the fault, and only one fault ever fires.
func TestFaultInjectorAfterN(t *testing.T) {
	env, dev := newTestDevice(t, false)
	plan, err := ParseFaultSpec("after=2,kind=hang")
	if err != nil {
		t.Fatal(err)
	}
	dev.SetFaultInjector(plan.ForGPU(0))
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		c.Acquire(p)
		defer c.Release()
		k := &cuda.Kernel{Name: "k", Grid: cuda.Dim(1), Block: cuda.Dim(128), CyclesPerThread: 1e3}
		if err := c.Launch(p, k, 1); err != nil {
			t.Errorf("launch 1: %v", err)
			return
		}
		if dev.Fault() != FaultNone {
			t.Error("fault fired before its launch count")
		}
		if err := c.Launch(p, k, 1); err == nil {
			t.Error("launch 2 should trip the injector and fail")
		} else if fe, ok := IsFault(err); !ok || fe.Kind != XidHang {
			t.Errorf("launch 2 error = %v, want xid hang", err)
		}
	})
	run(t, env)
}

// TestFaultInjectorRateSeeded checks the random injector is
// deterministic per seed and independent across GPUs.
func TestFaultInjectorRateSeeded(t *testing.T) {
	plan, err := ParseFaultSpec("rate=1,seed=9,kinds=fatal")
	if err != nil {
		t.Fatal(err)
	}
	env, dev := newTestDevice(t, false)
	dev.SetFaultInjector(plan.ForGPU(0))
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		c.Acquire(p)
		defer c.Release()
		k := &cuda.Kernel{Name: "k", Grid: cuda.Dim(1), Block: cuda.Dim(128), CyclesPerThread: 1e3}
		// rate=1: the very first launch must fault.
		if err := c.Launch(p, k, 1); err == nil {
			t.Error("rate=1 injector did not fire on the first launch")
		} else if fe, ok := IsFault(err); !ok || fe.Kind != XidFatal {
			t.Errorf("error = %v, want xid fatal", err)
		}
	})
	run(t, env)
}
