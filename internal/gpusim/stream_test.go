package gpusim

import (
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/sim"
)

// h2dAsync and launchAsync enqueue a copy and a kernel the way gvm's flush
// does: EnqueueCB with a closure over the context's blocking call.
func h2dAsync(s *Stream, d cuda.DevPtr, h *HostBuffer, n int64) {
	s.EnqueueCB(func(p *sim.Proc) { s.ctx.MemcpyH2D(p, d, h, n) }, nil)
}

func launchAsync(s *Stream, k *cuda.Kernel, cb func()) {
	s.EnqueueCB(func(p *sim.Proc) {
		if err := s.ctx.Launch(p, k, 1); err != nil {
			panic(err)
		}
	}, cb)
}

func TestStreamInOrderExecution(t *testing.T) {
	env, dev := newTestDevice(t, false)
	arch := dev.Arch()
	var n int64 = 4 << 20
	var total sim.Duration
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		c.Acquire(p)
		defer c.Release()
		s := c.NewStream()
		d := c.MustMalloc(n)
		h := dev.AllocHost(n, true)
		k := &cuda.Kernel{Name: "k", Grid: cuda.Dim(arch.SMs), Block: cuda.Dim(1024), CyclesPerThread: 1e5}
		start := p.Now()
		h2dAsync(s, d, h, n)
		launchAsync(s, k, nil)
		s.EnqueueCB(func(p *sim.Proc) { c.MemcpyD2H(p, h, d, n) }, nil)
		s.Synchronize(p)
		total = p.Now().Sub(start)
	})
	run(t, env)
	// In-stream operations serialize: total >= sum of the parts.
	kt := sim.Duration(expectSingleKernelTime(dev.Arch(), &cuda.Kernel{
		Grid: cuda.Dim(arch.SMs), Block: cuda.Dim(1024), CyclesPerThread: 1e5}) * 1e9)
	wantMin := arch.TransferTime(n, true, true) + kt + arch.TransferTime(n, false, true)
	if total < wantMin {
		t.Fatalf("stream pipeline took %v, less than serialized parts %v", total, wantMin)
	}
	if total > wantMin+sim.Millisecond {
		t.Fatalf("stream pipeline took %v, way more than parts %v", total, wantMin)
	}
}

func TestTwoStreamsOverlapCopyAndCompute(t *testing.T) {
	// Stream A computes while stream B transfers: with copy/compute
	// overlap, the makespan is close to max(copy, compute), not the sum.
	env, dev := newTestDevice(t, false)
	arch := dev.Arch()
	// A kernel lasting ~10 ms and a transfer lasting ~7 ms.
	k := &cuda.Kernel{Name: "k", Grid: cuda.Dim(arch.SMs), Block: cuda.Dim(1024),
		CyclesPerThread: 10e-3 * 32 * 1.15e9 / 1024}
	var n int64 = 20 << 20
	var makespan sim.Duration
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		c.Acquire(p)
		defer c.Release()
		sa, sb := c.NewStream(), c.NewStream()
		d := c.MustMalloc(n)
		h := dev.AllocHost(n, true)
		start := p.Now()
		launchAsync(sa, k, nil)
		h2dAsync(sb, d, h, n)
		sa.Synchronize(p)
		sb.Synchronize(p)
		makespan = p.Now().Sub(start)
	})
	run(t, env)
	copyT := arch.TransferTime(n, true, true)
	if makespan > copyT+11*sim.Millisecond && makespan > 11*sim.Millisecond {
		t.Fatalf("makespan %v suggests no copy/compute overlap", makespan)
	}
	if makespan < 9*sim.Millisecond {
		t.Fatalf("makespan %v shorter than the kernel alone", makespan)
	}
	// Must be near max(kernel, copy) = ~10ms, not the ~13.7ms sum.
	if makespan > 11*sim.Millisecond {
		t.Fatalf("makespan %v, want ~10ms (overlapped)", makespan)
	}
}

func TestNoOverlapOnPreFermi(t *testing.T) {
	// Same scenario on a GT200-class device (no ConcurrentCopyExec):
	// the copy and the kernel serialize.
	env := sim.NewEnv()
	arch := fermi.TeslaC1060()
	dev := MustNew(env, Config{Arch: arch})
	kernelSec := 10e-3
	k := &cuda.Kernel{Name: "k", Grid: cuda.Dim(arch.SMs), Block: cuda.Dim(512),
		CyclesPerThread: kernelSec * float64(arch.CoresPerSM) * arch.ClockHz / 512}
	var n int64 = 20 << 20
	var makespan sim.Duration
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		c.Acquire(p)
		defer c.Release()
		sa, sb := c.NewStream(), c.NewStream()
		d := c.MustMalloc(n)
		h := dev.AllocHost(n, true)
		start := p.Now()
		launchAsync(sa, k, nil)
		h2dAsync(sb, d, h, n)
		sa.Synchronize(p)
		sb.Synchronize(p)
		makespan = p.Now().Sub(start)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	copyT := arch.TransferTime(n, true, true)
	wantMin := copyT + sim.Duration(0.9*kernelSec*1e9)
	if makespan < wantMin {
		t.Fatalf("makespan %v < %v: copy and compute overlapped on pre-Fermi", makespan, wantMin)
	}
}

func TestStreamsFromManyProcessesConcurrentKernels(t *testing.T) {
	// Eight processes, one stream each under a single context (the GVM
	// arrangement): small kernels from all streams overlap almost fully.
	env, dev := newTestDevice(t, false)
	arch := dev.Arch()
	mk := func() *cuda.Kernel {
		return &cuda.Kernel{Name: "ep", Grid: cuda.Dim(4), Block: cuda.Dim(128),
			CyclesPerThread: 1e7}
	}
	aloneK := mk()
	alone := sim.Duration(expectSingleKernelTime(arch, aloneK) * 1e9)
	var makespan sim.Duration
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		c.Acquire(p)
		defer c.Release()
		start := p.Now()
		done := env.NewEvent()
		left := 8
		for i := 0; i < 8; i++ {
			launchAsync(c.NewStream(), mk(), func() {
				left--
				if left == 0 {
					done.Fire(nil)
				}
			})
		}
		p.Wait(done)
		makespan = p.Now().Sub(start)
	})
	run(t, env)
	// 8 x 4 blocks of 4 warps spread over 14 SMs: 3 blocks/SM = 12 warps,
	// still under the latency-hiding floor -> full concurrency.
	if d := float64(makespan-alone) / float64(alone); d > 0.02 {
		t.Fatalf("8 concurrent EP-like kernels: %v vs %v alone (+%.1f%%), want overlap",
			makespan, alone, 100*d)
	}
}

func TestStreamClose(t *testing.T) {
	env, dev := newTestDevice(t, false)
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		s := c.NewStream()
		s.Close()
	})
	run(t, env) // deadlock-free: the runner exits on the sentinel
}
