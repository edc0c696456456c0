package gpusim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/sim"
)

// expectSingleKernelTime computes the analytic execution time of a kernel
// under the scheduler's model when it runs alone on an idle device and
// every wave is a full (or the final partial) wave with uniform residency.
func expectSingleKernelTime(arch fermi.Arch, k *cuda.Kernel) float64 {
	occ, err := arch.Occupancy(k.Resources())
	if err != nil {
		panic(err)
	}
	throughput := float64(arch.CoresPerSM) * arch.ClockHz
	blockWork := float64(k.Block.Count()) * k.CyclesPerThread
	remaining := k.Blocks()
	total := 0.0
	for remaining > 0 {
		wave := min(remaining, occ.BlocksPerSM*arch.SMs)
		// Round-robin spreads the wave; the busiest SM determines the
		// wave's completion (blocks on lighter SMs finish earlier, but
		// refill only happens per reschedule; for wave-aligned workloads
		// used in tests the distribution is uniform).
		perSM := (wave + arch.SMs - 1) / arch.SMs
		warps := perSM * occ.WarpsPerBlock
		denom := float64(warps)
		if lh := float64(arch.LatencyHidingWarps); denom < lh {
			denom = lh
		}
		rate := throughput * float64(occ.WarpsPerBlock) / denom
		// The scheduler arms wave timers on the integer-nanosecond clock,
		// rounding up (floor + 1ns); mirror that quantization exactly.
		total += (math.Floor(blockWork/rate*1e9) + 1) / 1e9
		remaining -= wave
	}
	return total
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func launchAndTime(t *testing.T, arch fermi.Arch, ks ...*cuda.Kernel) (makespan sim.Duration, each []sim.Duration) {
	t.Helper()
	env := sim.NewEnv()
	dev := MustNew(env, Config{Arch: arch})
	each = make([]sim.Duration, len(ks))
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		c.Acquire(p)
		start := p.Now()
		done := env.NewEvent()
		remaining := len(ks)
		for i, k := range ks {
			i, k := i, k
			env.Go(func(p *sim.Proc) {
				if err := c.Launch(p, k, 1); err != nil {
					t.Errorf("launch %s: %v", k.Name, err)
				}
				each[i] = p.Now().Sub(start)
				remaining--
				if remaining == 0 {
					done.Fire(nil)
				}
			})
		}
		p.Wait(done)
		makespan = p.Now().Sub(start)
		c.Release()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return makespan, each
}

func closeTo(t *testing.T, got sim.Duration, wantSec float64, rel float64, msg string) {
	t.Helper()
	g := got.Seconds()
	if math.Abs(g-wantSec) > rel*wantSec+1e-7 {
		t.Fatalf("%s: got %.6fs, want %.6fs", msg, g, wantSec)
	}
}

func TestKernelSingleSmallBlock(t *testing.T) {
	arch := fermi.TeslaC2070()
	k := &cuda.Kernel{
		Name: "single", Grid: cuda.Dim(1), Block: cuda.Dim(128),
		CyclesPerThread: 1e6,
	}
	// One block of 4 warps on one SM: under-occupied, throttled by the
	// latency-hiding floor of 22 warps.
	want := expectSingleKernelTime(arch, k)
	makespan, _ := launchAndTime(t, arch, k)
	over := arch.KernelLaunchOverhead
	closeTo(t, makespan-over, want, 1e-6, "single small block")
	// Cross-check the formula itself: 128 threads x 1e6 cycles at
	// 32 SP x 1.15GHz x (4/22 share).
	manual := 128.0 * 1e6 / (32 * 1.15e9 * 4 / 22)
	if math.Abs(want-manual) > 1e-8*manual+2e-9 {
		t.Fatalf("model formula drifted: %g vs %g", want, manual)
	}
}

func TestKernelFullDeviceWave(t *testing.T) {
	arch := fermi.TeslaC2070()
	// 14 blocks of 1024 threads (32 warps): exactly one block per SM,
	// fully saturated (denominator = 32 warps).
	k := &cuda.Kernel{
		Name: "fullwave", Grid: cuda.Dim(arch.SMs), Block: cuda.Dim(1024),
		CyclesPerThread: 1e5,
	}
	want := expectSingleKernelTime(arch, k)
	makespan, _ := launchAndTime(t, arch, k)
	closeTo(t, makespan-arch.KernelLaunchOverhead, want, 1e-6, "full wave")

	// Two waves take exactly twice as long.
	k2 := *k
	k2.Grid = cuda.Dim(2 * arch.SMs)
	makespan2, _ := launchAndTime(t, arch, &k2)
	closeTo(t, makespan2-arch.KernelLaunchOverhead, 2*want, 1e-6, "two waves")
}

func TestSmallKernelsRunConcurrently(t *testing.T) {
	// Two kernels, each 14 blocks of 8 warps: together 16 warps/SM, still
	// under the 22-warp latency-hiding floor, so running both together
	// takes the same time as one alone — the Fermi concurrency the paper's
	// virtualization exploits.
	arch := fermi.TeslaC2070()
	mk := func(name string) *cuda.Kernel {
		return &cuda.Kernel{
			Name: name, Grid: cuda.Dim(arch.SMs), Block: cuda.Dim(256),
			CyclesPerThread: 1e5,
		}
	}
	alone, _ := launchAndTime(t, arch, mk("a"))
	both, _ := launchAndTime(t, arch, mk("a"), mk("b"))
	if d := float64(both-alone) / float64(alone); d > 0.01 {
		t.Fatalf("two small kernels took %v vs %v alone (+%.1f%%); want full overlap",
			both, alone, 100*d)
	}
}

func TestFullKernelsSerialize(t *testing.T) {
	// Two kernels that each fill the device (32 warps/block: one block per
	// SM exhausts the 48-warp budget for a second 32-warp block).
	arch := fermi.TeslaC2070()
	mk := func(name string) *cuda.Kernel {
		return &cuda.Kernel{
			Name: name, Grid: cuda.Dim(arch.SMs), Block: cuda.Dim(1024),
			CyclesPerThread: 1e5,
		}
	}
	alone, _ := launchAndTime(t, arch, mk("a"))
	both, _ := launchAndTime(t, arch, mk("a"), mk("b"))
	ratio := float64(both) / float64(alone)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("two device-filling kernels ratio = %.3f, want ~2 (serialization)", ratio)
	}
}

func TestConcurrentKernelWindowLimit(t *testing.T) {
	// With MaxConcurrentKernels=1 two tiny kernels serialize even though
	// SM resources would allow overlap.
	arch := fermi.TeslaC2070()
	mk := func(name string) *cuda.Kernel {
		return &cuda.Kernel{
			Name: name, Grid: cuda.Dim(4), Block: cuda.Dim(128),
			CyclesPerThread: 1e6,
		}
	}
	concurrent, _ := launchAndTime(t, arch, mk("a"), mk("b"))
	arch1 := arch
	arch1.MaxConcurrentKernels = 1
	serialized, _ := launchAndTime(t, arch1, mk("a"), mk("b"))
	ratio := float64(serialized) / float64(concurrent)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("window=1 / window=16 ratio = %.3f, want ~2", ratio)
	}
}

func TestZeroWorkKernelCompletesInstantly(t *testing.T) {
	arch := fermi.TeslaC2070()
	k := &cuda.Kernel{Name: "empty", Grid: cuda.Dim(64), Block: cuda.Dim(256)}
	makespan, _ := launchAndTime(t, arch, k)
	if makespan != arch.KernelLaunchOverhead {
		t.Fatalf("zero-work kernel took %v, want launch overhead %v", makespan, arch.KernelLaunchOverhead)
	}
}

func TestMemoryBandwidthFloor(t *testing.T) {
	arch := fermi.TeslaC2070()
	// Tiny compute but 1 GiB of traffic: duration = bytes / 144 GB/s.
	k := &cuda.Kernel{
		Name: "membound", Grid: cuda.Dim(1024), Block: cuda.Dim(256),
		CyclesPerThread:   1,
		MemBytesPerThread: float64(1<<30) / float64(1024*256),
	}
	makespan, _ := launchAndTime(t, arch, k)
	wantFloor := float64(1<<30) / arch.MemBandwidth
	if makespan.Seconds() < wantFloor {
		t.Fatalf("mem-bound kernel took %.6fs, below bandwidth floor %.6fs",
			makespan.Seconds(), wantFloor)
	}
	closeTo(t, makespan, wantFloor, 0.01, "bandwidth floor")
}

func TestLaunchInvalidKernelFails(t *testing.T) {
	env := sim.NewEnv()
	dev := MustNew(env, Config{Arch: fermi.TeslaC2070()})
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		c.Acquire(p)
		defer c.Release()
		bad := &cuda.Kernel{Name: "bad", Grid: cuda.Dim(1), Block: cuda.Dim(4096)}
		if err := c.Launch(p, bad, 1); err == nil {
			t.Error("launch of 4096-thread block succeeded")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFunctionalKernelComputes(t *testing.T) {
	env := sim.NewEnv()
	arch := fermi.TeslaC2070()
	arch.MemBytes = 16 << 20
	dev := MustNew(env, Config{Arch: arch, Functional: true})
	const n = 4096
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		c.Acquire(p)
		defer c.Release()
		a := c.MustMalloc(n * 4)
		b := c.MustMalloc(n * 4)
		out := c.MustMalloc(n * 4)
		ha := make([]float32, n)
		hb := make([]float32, n)
		for i := range ha {
			ha[i] = float32(i)
			hb[i] = 2 * float32(i)
		}
		c.MemcpyH2D(p, a, WrapHost(cuda.HostFloat32Bytes(ha), false), n*4)
		c.MemcpyH2D(p, b, WrapHost(cuda.HostFloat32Bytes(hb), false), n*4)
		k := &cuda.Kernel{
			Name: "vecadd", Grid: cuda.Dim(n / 256), Block: cuda.Dim(256),
			CyclesPerThread: 4,
			Args:            []any{a, b, out, n},
			Func: func(bc *cuda.BlockCtx) {
				av := cuda.Float32s(bc.Mem, bc.Ptr(0), bc.Int(3))
				bv := cuda.Float32s(bc.Mem, bc.Ptr(1), bc.Int(3))
				ov := cuda.Float32s(bc.Mem, bc.Ptr(2), bc.Int(3))
				base := bc.GlobalBase()
				for t := 0; t < bc.BlockDim.X; t++ {
					i := base + t
					if i < bc.Int(3) {
						ov[i] = av[i] + bv[i]
					}
				}
			},
		}
		if err := c.Launch(p, k, 1); err != nil {
			t.Fatal(err)
		}
		hout := make([]float32, n)
		c.MemcpyD2H(p, WrapHost(cuda.HostFloat32Bytes(hout), false), out, n*4)
		for i := range hout {
			if hout[i] != 3*float32(i) {
				t.Fatalf("out[%d] = %g, want %g", i, hout[i], 3*float32(i))
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dev.KernelsRun != 1 {
		t.Fatalf("KernelsRun = %d, want 1", dev.KernelsRun)
	}
}

func TestManyWavesLargeGrid(t *testing.T) {
	// A 50K-block launch (the paper's vector-add grid) completes and
	// matches the wave model.
	arch := fermi.TeslaC2070()
	k := &cuda.Kernel{
		Name: "huge", Grid: cuda.Dim(48828), Block: cuda.Dim(1024),
		CyclesPerThread: 0.4,
	}
	want := expectSingleKernelTime(arch, k)
	makespan, _ := launchAndTime(t, arch, k)
	closeTo(t, makespan-arch.KernelLaunchOverhead, want, 0.01, "50K-block grid")
	// Should land in the vicinity of the paper's measured 0.038 ms Tcomp.
	if ms := makespan.Seconds() * 1e3; ms < 0.01 || ms > 0.2 {
		t.Fatalf("vector-add-like kernel = %.4f ms, want order of Table II's 0.038 ms", ms)
	}
}

// Property: for any mix of concurrently launched kernels, the device is
// work-conserving: the makespan is at least total-work/peak-throughput
// and at most what full serialization at the worst latency-hiding
// penalty would cost.
func TestQuickSchedulerWorkConservation(t *testing.T) {
	arch := fermi.TeslaC2070()
	f := func(seeds []uint16) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 6 {
			seeds = seeds[:6]
		}
		var ks []*cuda.Kernel
		var totalWork float64
		for i, s := range seeds {
			blocks := int(s%32) + 1
			threads := 32 * (int(s/32)%8 + 1) // 32..256
			cycles := float64(s%997+1) * 1e3
			k := &cuda.Kernel{
				Name:            fmt.Sprintf("k%d", i),
				Grid:            cuda.Dim(blocks),
				Block:           cuda.Dim(threads),
				CyclesPerThread: cycles,
			}
			ks = append(ks, k)
			totalWork += float64(k.Threads()) * k.CyclesPerThread
		}
		makespan, _ := launchAndTime(t, arch, ks...)
		peak := float64(arch.SMs*arch.CoresPerSM) * arch.ClockHz
		lower := totalWork / peak
		// Upper bound: every block serialized at the single-warp rate
		// (the pathological floor), plus launch overheads.
		perWarpRate := float64(arch.CoresPerSM) * arch.ClockHz / float64(arch.LatencyHidingWarps)
		var upper float64
		for _, k := range ks {
			occ, err := arch.Occupancy(k.Resources())
			if err != nil {
				return true
			}
			blockWork := float64(k.Block.Count()) * k.CyclesPerThread
			upper += float64(k.Blocks()) * blockWork / (perWarpRate * float64(occ.WarpsPerBlock))
		}
		upper += float64(len(ks)) * arch.KernelLaunchOverhead.Seconds() * 2
		got := makespan.Seconds()
		return got >= lower*0.999 && got <= upper*1.001+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a kernel's runtime never decreases when its per-thread work
// increases (monotonicity of the cost model end to end).
func TestQuickSchedulerMonotoneInWork(t *testing.T) {
	arch := fermi.TeslaC2070()
	f := func(s uint16) bool {
		blocks := int(s%24) + 1
		base := &cuda.Kernel{
			Name: "m", Grid: cuda.Dim(blocks), Block: cuda.Dim(128),
			CyclesPerThread: float64(s%1000+1) * 100,
		}
		heavier := *base
		heavier.CyclesPerThread *= 2
		t1, _ := launchAndTime(t, arch, base)
		t2, _ := launchAndTime(t, arch, &heavier)
		return t2 >= t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
