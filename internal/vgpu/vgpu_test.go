package vgpu

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/gvm"
	"gpuvirt/internal/kernels"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
	"gpuvirt/internal/trace"
	"gpuvirt/internal/workloads"
)

// newRig is a started manager with its mqueue front-end.
func newRig(t *testing.T, functional bool, parties int, mut func(*gvm.Config)) (*sim.Env, *gpusim.Device, *gvm.Manager, *Host) {
	t.Helper()
	env, dev, mgr := newManager(t, functional, parties, mut)
	return env, dev, mgr, Serve(mgr, Config{})
}

func newManager(t *testing.T, functional bool, parties int, mut func(*gvm.Config)) (*sim.Env, *gpusim.Device, *gvm.Manager) {
	t.Helper()
	env := sim.NewEnv()
	arch := fermi.TeslaC2070()
	if functional {
		arch.MemBytes = 256 << 20
	}
	dev := gpusim.MustNew(env, gpusim.Config{Arch: arch, Functional: functional})
	cfg := gvm.Config{Device: dev, Parties: parties}
	if mut != nil {
		mut(&cfg)
	}
	mgr := gvm.New(env, cfg)
	mgr.Start()
	return env, dev, mgr
}

// vecSpec builds a vector-add task spec over n float32 elements.
func vecSpec(n int) *task.Spec {
	return &task.Spec{
		Name:     "vecadd",
		InBytes:  int64(2 * n * 4),
		OutBytes: int64(n * 4),
		Build: func(b *task.Buffers) ([]*cuda.Kernel, error) {
			// Input layout: a then b contiguous in the In buffer.
			a := b.In
			bb := b.In + cuda.DevPtr(n*4)
			return []*cuda.Kernel{kernels.NewVecAdd(a, bb, b.Out, n)}, nil
		},
	}
}

func TestFullProtocolFunctional(t *testing.T) {
	const n = 2048
	reg := metrics.NewRegistry()
	env, _, mgr, host := newRig(t, true, 1, func(c *gvm.Config) { c.Metrics = reg })
	env.Go(func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		v, err := host.Connect(p, vecSpec(n))
		if err != nil {
			t.Error(err)
			return
		}
		in := make([]float32, 2*n)
		for i := 0; i < n; i++ {
			in[i] = float32(i)
			in[n+i] = float32(3 * i)
		}
		out := make([]byte, n*4)
		if err := v.RunCycle(p, cuda.HostFloat32Bytes(in), out); err != nil {
			t.Error(err)
			return
		}
		got := cuda.Float32s(memBytes(out), 0, n)
		for i := 0; i < n; i++ {
			if got[i] != 4*float32(i) {
				t.Errorf("out[%d] = %g, want %g", i, got[i], 4*float32(i))
				return
			}
		}
		if err := v.Release(p); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if gvmCount(t, reg, mgr, "gvm_open_sessions") != 0 {
		t.Fatalf("%d sessions leaked", gvmCount(t, reg, mgr, "gvm_open_sessions"))
	}
}

// memBytes adapts a raw byte slice to cuda.Memory for typed views.
type sliceMem []byte

func (s sliceMem) Bytes(p cuda.DevPtr, n int64) []byte { return s[p : int64(p)+n] }

func memBytes(b []byte) cuda.Memory { return sliceMem(b) }

func TestEightClientsBarrierAndConcurrency(t *testing.T) {
	const n = 1 << 16
	env, dev, mgr, host := newRig(t, false, 8, nil)
	var ends []sim.Time
	for i := 0; i < 8; i++ {
		env.Go(func(p *sim.Proc) {
			p.Wait(mgr.Ready())
			v, err := host.Connect(p, vecSpec(n))
			if err != nil {
				t.Error(err)
				return
			}
			if err := v.RunCycle(p, nil, nil); err != nil {
				t.Error(err)
				return
			}
			ends = append(ends, p.Now())
			if err := v.Release(p); err != nil {
				t.Error(err)
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ends) != 8 {
		t.Fatalf("%d clients finished", len(ends))
	}
	if mgr.Flushes() != 1 {
		t.Fatalf("Flushes = %d, want 1 (single barrier batch)", mgr.Flushes())
	}
	if dev.ContextSwitches != 0 {
		t.Fatalf("ContextSwitches = %d, want 0 under virtualization", dev.ContextSwitches)
	}
	if dev.KernelsRun != 8 {
		t.Fatalf("KernelsRun = %d, want 8", dev.KernelsRun)
	}
}

func TestBarrierActuallyBlocksEarlyClients(t *testing.T) {
	// With Parties=2 a lone STR must not flush; the first client's Start
	// completes only after the second client arrives much later.
	const n = 1 << 12
	env, _, mgr, host := newRig(t, false, 2, nil)
	var firstStartDone sim.Time
	env.Go(func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		v, err := host.Connect(p, vecSpec(n))
		if err != nil {
			t.Error(err)
			return
		}
		if err := v.SendInput(p, nil); err != nil {
			t.Error(err)
			return
		}
		if err := v.Start(p); err != nil {
			t.Error(err)
			return
		}
		firstStartDone = p.Now()
		if err := v.Wait(p); err != nil {
			t.Error(err)
		}
	})
	var lateArrive sim.Time
	env.Go(func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		p.Sleep(500 * sim.Millisecond)
		v, err := host.Connect(p, vecSpec(n))
		if err != nil {
			t.Error(err)
			return
		}
		if err := v.SendInput(p, nil); err != nil {
			t.Error(err)
			return
		}
		lateArrive = p.Now()
		if err := v.Start(p); err != nil {
			t.Error(err)
			return
		}
		if err := v.Wait(p); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if firstStartDone < lateArrive {
		t.Fatalf("early client's STR acknowledged at %v, before the late party arrived at %v",
			firstStartDone, lateArrive)
	}
}

func TestBlockingSTPNoPolling(t *testing.T) {
	const n = 1 << 20
	run := func(blocking bool) int {
		env, _, mgr := newManager(t, false, 1, nil)
		host := Serve(mgr, Config{BlockingSTP: blocking})
		polls := 0
		env.Go(func(p *sim.Proc) {
			p.Wait(mgr.Ready())
			v, err := host.Connect(p, vecSpec(n))
			if err != nil {
				t.Error(err)
				return
			}
			if err := v.RunCycle(p, nil, nil); err != nil {
				t.Error(err)
				return
			}
			polls = v.Polls
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return polls
	}
	if p := run(true); p != 1 {
		t.Fatalf("blocking STP polls = %d, want 1", p)
	}
	if p := run(false); p < 2 {
		t.Fatalf("polling STP polls = %d, want >= 2 (WAIT then ACK)", p)
	}
}

func TestREQRejectsInvalidKernel(t *testing.T) {
	reg := metrics.NewRegistry()
	env, _, mgr, host := newRig(t, false, 1, func(c *gvm.Config) { c.Metrics = reg })
	spec := &task.Spec{
		Name: "bad", InBytes: 16, OutBytes: 16,
		Build: func(b *task.Buffers) ([]*cuda.Kernel, error) {
			return []*cuda.Kernel{{Name: "bad", Grid: cuda.Dim(1), Block: cuda.Dim(4096)}}, nil
		},
	}
	env.Go(func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		if _, err := host.Connect(p, spec); err == nil {
			t.Error("Connect accepted an invalid kernel")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if gvmCount(t, reg, mgr, "gvm_open_sessions") != 0 {
		t.Fatal("failed REQ leaked a session")
	}
}

func TestREQRejectsOOM(t *testing.T) {
	env, _, mgr, host := newRig(t, false, 1, nil)
	spec := &task.Spec{Name: "huge", InBytes: 64 << 30, OutBytes: 16}
	env.Go(func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		if _, err := host.Connect(p, spec); err == nil {
			t.Error("Connect accepted a 64 GiB allocation on a 6 GiB card")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRCVBeforeCompletionErrors(t *testing.T) {
	env, _, mgr, host := newRig(t, false, 1, nil)
	env.Go(func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		v, err := host.Connect(p, vecSpec(1<<12))
		if err != nil {
			t.Error(err)
			return
		}
		// RCV without SND/STR: the manager must reject it.
		if err := v.ReceiveOutput(p, nil); err == nil {
			t.Error("RCV before completion succeeded")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleSTRErrors(t *testing.T) {
	env, _, mgr, host := newRig(t, false, 1, nil)
	env.Go(func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		v, err := host.Connect(p, vecSpec(1<<22))
		if err != nil {
			t.Error(err)
			return
		}
		if err := v.SendInput(p, nil); err != nil {
			t.Error(err)
			return
		}
		if err := v.Start(p); err != nil {
			t.Error(err)
			return
		}
		// Second STR while the first still runs.
		if err := v.Start(p); err == nil {
			t.Error("second STR while running succeeded")
		}
		if err := v.Wait(p); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInputSizeValidation(t *testing.T) {
	env, _, mgr, host := newRig(t, true, 1, nil)
	env.Go(func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		v, err := host.Connect(p, vecSpec(1024))
		if err != nil {
			t.Error(err)
			return
		}
		if err := v.SendInput(p, make([]byte, 7)); err == nil {
			t.Error("SendInput accepted wrong-size data")
		}
		if err := v.ReceiveOutput(p, make([]byte, 7)); err == nil {
			t.Error("ReceiveOutput accepted wrong-size buffer")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConnectNilSpec(t *testing.T) {
	env, _, mgr, host := newRig(t, false, 1, nil)
	env.Go(func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		if _, err := host.Connect(p, nil); err == nil {
			t.Error("Connect accepted nil spec")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestScratchBuffersFreedOnRelease(t *testing.T) {
	env, dev, mgr, host := newRig(t, false, 1, nil)
	spec := &task.Spec{
		Name: "scratchy", InBytes: 1024, OutBytes: 1024,
		Build: func(b *task.Buffers) ([]*cuda.Kernel, error) {
			for i := 0; i < 4; i++ {
				if _, err := b.NewScratch(1 << 20); err != nil {
					return nil, err
				}
			}
			return nil, nil
		},
	}
	env.Go(func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		v, err := host.Connect(p, spec)
		if err != nil {
			t.Error(err)
			return
		}
		if dev.MemInUse() == 0 {
			t.Error("no device memory in use after REQ")
		}
		if err := v.RunCycle(p, nil, nil); err != nil {
			t.Error(err)
			return
		}
		if err := v.Release(p); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dev.MemInUse() != 0 {
		t.Fatalf("%d bytes of device memory leaked after RLS", dev.MemInUse())
	}
}

func TestSessionQuotaRejectsOverCommit(t *testing.T) {
	env, _, mgr, host := newRig(t, false, 1, func(c *gvm.Config) { c.QuotaBytes = 1 << 20 })
	env.Go(func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		// First session fits the 1 MiB quota.
		small := &task.Spec{Name: "small", InBytes: 512 << 10, OutBytes: 128 << 10}
		v, err := host.Connect(p, small)
		if err != nil {
			t.Errorf("first session rejected: %v", err)
			return
		}
		// Second would exceed the aggregate quota.
		if _, err := host.Connect(p, small); err == nil {
			t.Error("quota-exceeding session accepted")
		}
		// Releasing the first frees quota for a third.
		if err := v.Release(p); err != nil {
			t.Error(err)
			return
		}
		if _, err := host.Connect(p, small); err != nil {
			t.Errorf("session after quota release rejected: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierTimeoutFlushesPartialBatch(t *testing.T) {
	// Parties=3 but only two clients ever arrive: with BarrierTimeout the
	// manager flushes the partial batch instead of wedging the node.
	reg := metrics.NewRegistry()
	env, _, mgr, host := newRig(t, false, 3, func(c *gvm.Config) {
		c.Metrics = reg
		c.BarrierTimeout = 250 * sim.Millisecond
	})
	var done []sim.Time
	for i := 0; i < 2; i++ {
		env.Go(func(p *sim.Proc) {
			p.Wait(mgr.Ready())
			v, err := host.Connect(p, vecSpec(1<<16))
			if err != nil {
				t.Error(err)
				return
			}
			if err := v.RunCycle(p, nil, nil); err != nil {
				t.Error(err)
				return
			}
			done = append(done, p.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatalf("%d clients completed, want 2 (timeout flush)", len(done))
	}
	if gvmCount(t, reg, mgr, "gvm_barrier_timeouts_total") != 1 {
		t.Fatalf("BarrierTimeouts = %d, want 1", gvmCount(t, reg, mgr, "gvm_barrier_timeouts_total"))
	}
}

func TestBarrierTimeoutNotFiredWhenAllArrive(t *testing.T) {
	reg := metrics.NewRegistry()
	env, _, mgr, host := newRig(t, false, 2, func(c *gvm.Config) {
		c.Metrics = reg
		c.BarrierTimeout = 10 * sim.Second
	})
	for i := 0; i < 2; i++ {
		env.Go(func(p *sim.Proc) {
			p.Wait(mgr.Ready())
			v, err := host.Connect(p, vecSpec(1<<16))
			if err != nil {
				t.Error(err)
				return
			}
			if err := v.RunCycle(p, nil, nil); err != nil {
				t.Error(err)
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if gvmCount(t, reg, mgr, "gvm_barrier_timeouts_total") != 0 {
		t.Fatalf("BarrierTimeouts = %d, want 0", gvmCount(t, reg, mgr, "gvm_barrier_timeouts_total"))
	}
	if mgr.Flushes() != 1 {
		t.Fatalf("Flushes = %d, want 1", mgr.Flushes())
	}
}

func TestSuspendedSessionFreesRoomForOthers(t *testing.T) {
	// Residency-layer packing: with a ~2 MiB device one session fills
	// the card. Under the old fit-or-reject model the second REQ died on
	// device OOM; the eviction engine now evacuates the idle first
	// session to a host snapshot and admits the second. The first
	// session's next verb restores it and evicts the second in turn —
	// the device swaps arenas instead of rejecting work.
	env := sim.NewEnv()
	arch := fermi.TeslaC2070()
	arch.MemBytes = 2 << 20 // tiny card: one ~1.5MiB session resident at a time
	dev := gpusim.MustNew(env, gpusim.Config{Arch: arch})
	// Lift the shm quota so device memory is the binding constraint.
	reg := metrics.NewRegistry()
	mgr := gvm.New(env, gvm.Config{Device: dev, QuotaBytes: 1 << 30, Metrics: reg})
	mgr.Start()
	host := Serve(mgr, Config{})
	spec := &task.Spec{Name: "big", InBytes: 1 << 20, OutBytes: 512 << 10}
	env.Go(func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		v1, err := host.Connect(p, spec)
		if err != nil {
			t.Error(err)
			return
		}
		// The device is full, but v1 is idle: REQ evicts it and fits.
		v2, err := host.Connect(p, spec)
		if err != nil {
			t.Errorf("second session rejected on a full device: %v", err)
			return
		}
		if gvmCount(t, reg, mgr, "gvm_evictions_total") != 1 {
			t.Errorf("evictions = %d, want 1", gvmCount(t, reg, mgr, "gvm_evictions_total"))
		}
		// v1's arena sits in a host snapshot; its logical reservation
		// persists, so reserved now exceeds resident.
		if res, inUse := dev.MemReserved(), dev.MemInUse(); res <= inUse {
			t.Errorf("reserved %d <= resident %d after eviction", res, inUse)
		}
		// v1's SND restores it and swaps the pair: v2 is idle, so it is
		// evicted to make room.
		if err := v1.SendInput(p, nil); err != nil {
			t.Errorf("SND on evicted session: %v", err)
			return
		}
		if gvmCount(t, reg, mgr, "gvm_evictions_total") != 2 || gvmCount(t, reg, mgr, "gvm_restores_total") != 1 {
			t.Errorf("evictions=%d restores=%d, want 2/1", gvmCount(t, reg, mgr, "gvm_evictions_total"), gvmCount(t, reg, mgr, "gvm_restores_total"))
		}
		if err := v2.Release(p); err != nil {
			t.Error(err)
			return
		}
		if err := v1.Release(p); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dev.MemReserved() != 0 || dev.MemInUse() != 0 {
		t.Fatalf("leak: reserved=%d inUse=%d after release", dev.MemReserved(), dev.MemInUse())
	}
}

// TestSuspendResumeMGScratchState: MG carries most of its state in scratch
// buffers (the level hierarchy), so an eviction mid-workload — a second
// session taking the card after MG staged its input — must carry every
// scratch buffer to the host snapshot and back, and the restored session
// still produce host-validated results.
func TestSuspendResumeMGScratchState(t *testing.T) {
	w := workloads.MG(16, 3, 2)
	env := sim.NewEnv()
	arch := fermi.TeslaC2070()
	arch.MemBytes = 4 << 20
	dev := gpusim.MustNew(env, gpusim.Config{Arch: arch, Functional: true})
	reg := metrics.NewRegistry()
	mgr := gvm.New(env, gvm.Config{Device: dev, QuotaBytes: 1 << 30, Metrics: reg})
	mgr.Start()
	host := Serve(mgr, Config{})
	env.Go(func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		spec := w.Spec(0)
		v, err := host.Connect(p, spec)
		if err != nil {
			t.Error(err)
			return
		}
		in := make([]byte, spec.InBytes)
		w.Fill(0, in)
		if err := v.SendInput(p, in); err != nil {
			t.Error(err)
			return
		}
		// A session that only fits the card once MG is off it.
		mg := dev.MemInUse()
		other, err := host.Connect(p, &task.Spec{Name: "filler", InBytes: arch.MemBytes - mg/2})
		if err != nil {
			t.Error(err)
			return
		}
		if gvmCount(t, reg, mgr, "gvm_evictions_total") != 1 {
			t.Errorf("evictions = %d, want 1: the filler's REQ evicts MG", gvmCount(t, reg, mgr, "gvm_evictions_total"))
		}
		if err := v.Start(p); err != nil {
			t.Error(err)
			return
		}
		if err := v.Wait(p); err != nil {
			t.Error(err)
			return
		}
		out := make([]byte, spec.OutBytes)
		if err := v.ReceiveOutput(p, out); err != nil {
			t.Error(err)
			return
		}
		if err := w.Check(0, out); err != nil {
			t.Error(err)
		}
		if gvmCount(t, reg, mgr, "gvm_restores_total") != 1 {
			t.Errorf("restores = %d, want 1", gvmCount(t, reg, mgr, "gvm_restores_total"))
		}
		for _, s := range []*VGPU{v, other} {
			if err := s.Release(p); err != nil {
				t.Error(err)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dev.MemReserved() != 0 || dev.MemInUse() != 0 {
		t.Fatalf("leak: reserved=%d resident=%d", dev.MemReserved(), dev.MemInUse())
	}
}

// TestBarrierFlushesInArrivalOrder pins the paper's flush order: a barrier
// batch's streams reach the copy engines in STR arrival order. The batch is
// heterogeneous — one 128 MiB task whose STR arrives first, then seven small
// ones, each its own size so that an engine span names its session — so a
// flush that reordered by cost (shortest first) would show.
func TestBarrierFlushesInArrivalOrder(t *testing.T) {
	env := sim.NewEnv()
	tr := trace.New()
	dev := gpusim.MustNew(env, gpusim.Config{Arch: fermi.TeslaC2070(), Tracer: tr})
	mgr := gvm.New(env, gvm.Config{Device: dev, Parties: 8})
	mgr.Start()
	host := Serve(mgr, Config{})
	elems := func(i int) int {
		if i == 0 {
			return 1 << 24 // 128 MiB in
		}
		return 1<<16 + i<<10 // about 512 KiB in
	}
	var arrived []int
	for i := 0; i < 8; i++ {
		env.Go(func(p *sim.Proc) {
			p.Wait(mgr.Ready())
			// The big task reaches the barrier first: its SND staging
			// takes about 6 ms, and the small tasks start after 10 ms.
			if i != 0 {
				p.Sleep(10*sim.Millisecond + sim.Duration(i)*sim.Microsecond)
			}
			v, err := host.Connect(p, vecSpec(elems(i)))
			if err == nil {
				err = v.SendInput(p, nil)
			}
			if err == nil {
				arrived = append(arrived, i)
				err = v.Start(p)
			}
			if err == nil {
				err = v.Wait(p)
			}
			if err != nil {
				t.Error(err)
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !slices.Equal(arrived, want) {
		t.Fatalf("STRs arrived in order %v, want %v", arrived, want)
	}
	for lane, bytesPerElem := range map[string]int{"h2d": 8, "d2h": 4} {
		session := map[string]int{}
		for i := range 8 {
			session[strconv.Itoa(elems(i)*bytesPerElem)+"B"] = i
		}
		var served []int
		for _, s := range tr.LaneSpans(lane) {
			f := strings.Fields(s.Label)
			i, ok := session[f[len(f)-1]]
			if !ok {
				t.Fatalf("%s span %q is no session's copy", lane, s.Label)
			}
			served = append(served, i)
		}
		if !slices.Equal(served, arrived) {
			t.Errorf("the %s engine served the sessions in order %v, want STR arrival order %v", lane, served, arrived)
		}
	}
}
