// Benchmarks regenerating every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`), plus ablation
// benchmarks for the design choices called out in DESIGN.md §5.
//
// Wall-clock ns/op measures the simulator itself; the paper's metrics —
// virtual turnaround times and speedups — are attached as custom metrics
// (virt-ms, novirt-ms, speedup and friends).
package gpuvirt_test

import (
	"fmt"
	"runtime"
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/experiments"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/kernels"
	"gpuvirt/internal/model"
	"gpuvirt/internal/shm"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/spmd"
	"gpuvirt/internal/transport"
	"gpuvirt/internal/workloads"
)

// --- Table II ---

func BenchmarkTableII_Profiles(b *testing.B) {
	var rows []model.Params
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.TableII()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Tinit.Seconds()*1e3, "vecadd-Tinit-ms")
	b.ReportMetric(rows[0].TdataIn.Seconds()*1e3, "vecadd-Tin-ms")
	b.ReportMetric(rows[1].Tcomp.Seconds()*1e3, "ep-Tcomp-ms")
}

// --- Figure 9 ---

func benchSeries(b *testing.B, w workloads.Workload, n int) {
	cfg := spmd.Config{
		Arch:       experiments.Arch(),
		N:          n,
		SpecFor:    w.Spec,
		SwitchCost: w.SwitchCost,
	}
	var dms, vms float64
	for i := 0; i < b.N; i++ {
		dres, err := spmd.RunDirect(cfg)
		if err != nil {
			b.Fatal(err)
		}
		vres, err := spmd.RunVirt(cfg)
		if err != nil {
			b.Fatal(err)
		}
		dms = dres.Turnaround.Seconds() * 1e3
		vms = vres.Turnaround.Seconds() * 1e3
	}
	b.ReportMetric(dms, "novirt-ms")
	b.ReportMetric(vms, "virt-ms")
	b.ReportMetric(dms/vms, "speedup")
}

func BenchmarkFigure9_VectorAdd8(b *testing.B) { benchSeries(b, workloads.PaperVectorAdd(), 8) }
func BenchmarkFigure9_EP8(b *testing.B)        { benchSeries(b, workloads.PaperEP(), 8) }

// --- Table III ---

func BenchmarkTableIII_Speedups(b *testing.B) {
	var rows []experiments.SpeedupRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.TableIII()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Experimental, "vecadd-speedup")
	b.ReportMetric(rows[0].Theoretical, "vecadd-theory")
	b.ReportMetric(rows[1].Experimental, "ep-speedup")
	b.ReportMetric(rows[1].Theoretical, "ep-theory")
}

// --- Figure 10 ---

func BenchmarkFigure10_Overhead(b *testing.B) {
	var pts []experiments.OverheadPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure10()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].OverheadPct, "overhead-25MB-pct")
	b.ReportMetric(pts[len(pts)-1].OverheadPct, "overhead-400MB-pct")
}

// --- Table IV ---

func BenchmarkTableIV_Classes(b *testing.B) {
	var rows []experiments.AppRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.TableIV()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.CycleMS, r.Name+"-cycle-ms")
	}
}

// --- Figures 11-15: one benchmark per application figure ---

func BenchmarkFigure11_MM(b *testing.B)           { benchSeries(b, workloads.PaperMM(), 8) }
func BenchmarkFigure12_MG(b *testing.B)           { benchSeries(b, workloads.PaperMG(), 8) }
func BenchmarkFigure13_BlackScholes(b *testing.B) { benchSeries(b, workloads.PaperBlackScholes(), 8) }
func BenchmarkFigure14_CG(b *testing.B)           { benchSeries(b, workloads.PaperCG(), 8) }
func BenchmarkFigure15_Electrostatics(b *testing.B) {
	benchSeries(b, workloads.PaperElectrostatics(), 8)
}

// --- Figure 16 ---

func BenchmarkFigure16_Speedups(b *testing.B) {
	var rows []experiments.SpeedupRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Figure16()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Experimental, r.Name+"-speedup")
	}
}

// --- Equation 6 ---

func BenchmarkSmaxBound(b *testing.B) {
	p := model.Params{
		Ntask: 8, Tinit: 1519 * sim.Millisecond, TctxSwitch: 148 * sim.Millisecond,
		TdataIn: 136 * sim.Millisecond, Tcomp: 10 * sim.Millisecond, TdataOut: 67 * sim.Millisecond,
	}
	var s float64
	for i := 0; i < b.N; i++ {
		q := p
		for q.Ntask = 1; q.Ntask <= 1024; q.Ntask *= 2 {
			s = q.Speedup()
		}
	}
	b.ReportMetric(s, "speedup-n1024")
	b.ReportMetric(p.Smax(), "smax")
}

// --- Ablations (DESIGN.md §5) ---

// AblationBarrier: the paper's synchronized flush (barrier over all
// parties) vs immediate per-request flushing.
func BenchmarkAblationBarrier(b *testing.B) {
	w := workloads.PaperMG() // both transfers and compute in flight
	base := spmd.Config{Arch: experiments.Arch(), N: 8, SpecFor: w.Spec, SwitchCost: w.SwitchCost}
	var with, without float64
	for i := 0; i < b.N; i++ {
		r1, err := spmd.RunVirt(base)
		if err != nil {
			b.Fatal(err)
		}
		noBar := base
		noBar.PartiesOverride = 1
		r2, err := spmd.RunVirt(noBar)
		if err != nil {
			b.Fatal(err)
		}
		with = r1.Turnaround.Seconds() * 1e3
		without = r2.Turnaround.Seconds() * 1e3
	}
	b.ReportMetric(with, "barrier-ms")
	b.ReportMetric(without, "nobarrier-ms")
}

// AblationPinned: pinned staging buffers (the paper's design) vs
// pageable staging.
func BenchmarkAblationPinned(b *testing.B) {
	w := workloads.PaperVectorAdd()
	base := spmd.Config{Arch: experiments.Arch(), N: 8, SpecFor: w.Spec, SwitchCost: w.SwitchCost}
	var pinned, pageable float64
	for i := 0; i < b.N; i++ {
		r1, err := spmd.RunVirt(base)
		if err != nil {
			b.Fatal(err)
		}
		pg := base
		pg.PageableStaging = true
		r2, err := spmd.RunVirt(pg)
		if err != nil {
			b.Fatal(err)
		}
		pinned = r1.Turnaround.Seconds() * 1e3
		pageable = r2.Turnaround.Seconds() * 1e3
	}
	b.ReportMetric(pinned, "pinned-ms")
	b.ReportMetric(pageable, "pageable-ms")
}

// AblationKernelWindow: sensitivity to Fermi's concurrent-kernel window.
func BenchmarkAblationKernelWindow(b *testing.B) {
	w := workloads.PaperEP()
	var t1, t4, t16 float64
	run := func(window int) float64 {
		arch := experiments.Arch()
		arch.MaxConcurrentKernels = window
		cfg := spmd.Config{Arch: arch, N: 8, SpecFor: w.Spec, SwitchCost: w.SwitchCost}
		res, err := spmd.RunVirt(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res.Turnaround.Seconds() * 1e3
	}
	for i := 0; i < b.N; i++ {
		t1, t4, t16 = run(1), run(4), run(16)
	}
	b.ReportMetric(t1, "window1-ms")
	b.ReportMetric(t4, "window4-ms")
	b.ReportMetric(t16, "window16-ms")
}

// AblationOverlap: Fermi's copy/compute overlap vs a pre-Fermi device
// (Tesla C1060) with neither overlap nor concurrent kernels.
func BenchmarkAblationOverlap(b *testing.B) {
	// Black-Scholes blocks (128 threads) fit both architectures; the
	// workload moves 20 MB per process and computes for hundreds of ms,
	// so copy/compute overlap is visible.
	w := workloads.BlackScholes(1_000_000, 64, 240)
	var fermiMS, gt200MS float64
	for i := 0; i < b.N; i++ {
		r1, err := spmd.RunVirt(spmd.Config{Arch: fermi.TeslaC2070(), N: 8, SpecFor: w.Spec, SwitchCost: w.SwitchCost})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := spmd.RunVirt(spmd.Config{Arch: fermi.TeslaC1060(), N: 8, SpecFor: w.Spec, SwitchCost: w.SwitchCost})
		if err != nil {
			b.Fatal(err)
		}
		fermiMS = r1.Turnaround.Seconds() * 1e3
		gt200MS = r2.Turnaround.Seconds() * 1e3
	}
	b.ReportMetric(fermiMS, "fermi-ms")
	b.ReportMetric(gt200MS, "gt200-ms")
}

// AblationBlockingSTP: the paper's poll-based STP handshake vs a
// blocking status response.
func BenchmarkAblationBlockingSTP(b *testing.B) {
	w := workloads.PaperEP()
	base := spmd.Config{Arch: experiments.Arch(), N: 8, SpecFor: w.Spec, SwitchCost: w.SwitchCost}
	var polled, blocking float64
	for i := 0; i < b.N; i++ {
		r1, err := spmd.RunVirt(base)
		if err != nil {
			b.Fatal(err)
		}
		bl := base
		bl.BlockingSTP = true
		r2, err := spmd.RunVirt(bl)
		if err != nil {
			b.Fatal(err)
		}
		polled = r1.Turnaround.Seconds() * 1e3
		blocking = r2.Turnaround.Seconds() * 1e3
	}
	b.ReportMetric(polled, "polled-ms")
	b.ReportMetric(blocking, "blocking-ms")
}

// --- Simulator micro-benchmarks ---

func BenchmarkSimEngineEvents(b *testing.B) {
	env := sim.NewEnv()
	for i := 0; i < b.N; i++ {
		env.After(sim.Duration(i), func() {})
	}
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkOccupancyCalc(b *testing.B) {
	arch := fermi.TeslaC2070()
	r := fermi.BlockResources{ThreadsPerBlock: 256, RegsPerThread: 21, SharedMemPerBlock: 4096}
	for i := 0; i < b.N; i++ {
		if _, err := arch.Occupancy(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeviceAllocator(b *testing.B) {
	a := gpusim.NewAllocator(1<<30, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := a.Alloc(4096)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelWaveScheduling(b *testing.B) {
	// Cost of simulating one paper-scale vector-add kernel (48829
	// blocks, ~3500 waves).
	w := workloads.PaperVectorAdd()
	cfg := spmd.Config{Arch: experiments.Arch(), N: 1, SpecFor: w.Spec, SwitchCost: w.SwitchCost}
	for i := 0; i < b.N; i++ {
		if _, err := spmd.RunDirect(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extensions beyond the paper ---

// ExtensionCluster: node-local virtualization vs rCUDA-style remote GPU
// access over two interconnects (the paper's Section II argument).
func BenchmarkExtensionCluster(b *testing.B) {
	var rows []experiments.ClusterRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtensionCluster()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].TurnaroundMS, "local-ms")
	b.ReportMetric(rows[1].TurnaroundMS, "remote-ib-ms")
	b.ReportMetric(rows[2].TurnaroundMS, "remote-gige-ms")
}

// ExtensionMultiGPU: scaling the manager across 1/2/4 GPUs for a
// device-saturating workload.
func BenchmarkExtensionMultiGPU(b *testing.B) {
	var rows []experiments.MultiGPURow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtensionMultiGPU()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Scaling, fmt.Sprintf("%dgpu-scaling", r.GPUs))
	}
}

// --- Data-plane fast paths: parallel executor, IPC framing, shm ---

// benchArena is flat functional device memory for running kernels outside
// the simulator (the simulator's Device is not needed to execute a
// kernel's Func).
type benchArena struct {
	data []byte
	next int64
}

func (m *benchArena) Bytes(p cuda.DevPtr, n int64) []byte {
	return m.data[p : int64(p)+n : int64(p)+n]
}

func (m *benchArena) alloc(n int64) cuda.DevPtr {
	p := cuda.DevPtr(m.next)
	m.next += (n + 255) &^ 255
	return p
}

func newBenchArena(n int64) *benchArena {
	return &benchArena{data: make([]byte, n), next: 256}
}

// benchFunctionalExec times one full kernel sequence per op, serially via
// the reference RunFunctional and through a 4-worker Executor. On a
// single-core host the parallel variant measures pool overhead, not
// speedup; the cores metric records the distinction.
func benchFunctionalExec(b *testing.B, build func(m *benchArena) []*cuda.Kernel) {
	const workers = 4
	b.Run("serial", func(b *testing.B) {
		mem := newBenchArena(64 << 20)
		ks := build(mem)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, k := range ks {
				if err := k.RunFunctional(mem); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		mem := newBenchArena(64 << 20)
		ks := build(mem)
		ex := cuda.NewExecutor(workers)
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, k := range ks {
				if err := ex.Run(k, mem); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkFunctionalExec_MM(b *testing.B) {
	benchFunctionalExec(b, func(m *benchArena) []*cuda.Kernel {
		const n = 256 // 16x16 tile blocks = 256 blocks
		pa, pb, pc := m.alloc(n*n*4), m.alloc(n*n*4), m.alloc(n*n*4)
		av := cuda.Float32s(m, pa, n*n)
		bv := cuda.Float32s(m, pb, n*n)
		for i := range av {
			av[i] = float32(i%13) / 13
			bv[i] = float32(i%11) / 11
		}
		return []*cuda.Kernel{kernels.NewMMTiled(pa, pb, pc, n, kernels.MMTile)}
	})
}

func BenchmarkFunctionalExec_Electrostatics(b *testing.B) {
	benchFunctionalExec(b, func(m *benchArena) []*cuda.Kernel {
		const natoms = 2000
		p := kernels.ESParams{GridX: 128, GridY: 64, Spacing: 0.5, Z: 1}
		pa := m.alloc(natoms * 4 * 4)
		po := m.alloc(int64(p.GridX*p.GridY) * 4)
		atoms := cuda.Float32s(m, pa, natoms*4)
		for i := range atoms {
			atoms[i] = float32(i%29) * 0.3
		}
		return []*cuda.Kernel{kernels.NewElectrostatics(pa, po, natoms, 1, 32, p)}
	})
}

func BenchmarkFunctionalExec_BlackScholes(b *testing.B) {
	benchFunctionalExec(b, func(m *benchArena) []*cuda.Kernel {
		const n = 100_000
		ps, px, pt := m.alloc(n*4), m.alloc(n*4), m.alloc(n*4)
		pc, pp := m.alloc(n*4), m.alloc(n*4)
		s := cuda.Float32s(m, ps, n)
		x := cuda.Float32s(m, px, n)
		tt := cuda.Float32s(m, pt, n)
		for i := range s {
			s[i] = 5 + float32(i%100)
			x[i] = 1 + float32(i%50)
			tt[i] = 0.25 + float32(i%40)/4
		}
		return []*cuda.Kernel{kernels.NewBlackScholes(ps, px, pt, pc, pp, n, 4, 60, kernels.DefaultBSParams())}
	})
}

// BenchmarkFunctionalExec_VecAdd is the bulk-shm workload's kernel on the
// daemon's default (serial) executor: n = 2^20, 8 MiB read and 4 MiB
// written per op, so MB/s reads against the copies around it.
func BenchmarkFunctionalExec_VecAdd(b *testing.B) {
	const n = 1 << 20
	m := newBenchArena(16 << 20)
	pa, pb, pc := m.alloc(n*4), m.alloc(n*4), m.alloc(n*4)
	av, bv := cuda.Float32s(m, pa, n), cuda.Float32s(m, pb, n)
	for i := range av {
		av[i] = float32(i%13) / 13
		bv[i] = float32(i%11) / 11
	}
	k := kernels.NewVecAdd(pa, pb, pc, n)
	b.SetBytes(12 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cuda.Serial.Run(k, m); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRequest is a representative control-plane message (the REQ verb
// carries the largest payload of the six).
func benchRequest() transport.Request {
	return transport.Request{
		Verb: "REQ",
		Rank: 3,
		Ref: &workloads.Ref{
			Name:   "vecadd",
			Params: map[string]int{"n": 50_000_000, "grid": 48829},
		},
	}
}

func BenchmarkIPCFrame_Binary(b *testing.B) {
	req := benchRequest()
	var buf []byte
	var got transport.Request
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = transport.EncodeRequestBinary(buf[:0], req)
		if err != nil {
			b.Fatal(err)
		}
		if err := transport.DecodeRequestBinaryInto(&got, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShmCopy_Mmap round-trips 1 MiB through a mapped file-backed
// segment — a client's StageIn/CollectOut copies on the shm plane.
func BenchmarkShmCopy_Mmap(b *testing.B) {
	const n = 1 << 20
	s, err := shm.NewFile(b.TempDir(), "bench-seg", n)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	src := make([]byte, n)
	dst := make([]byte, n)
	for i := range src {
		src[i] = byte(i)
	}
	b.SetBytes(2 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WriteAt(src, 0); err != nil {
			b.Fatal(err)
		}
		if err := s.ReadAt(dst, 0); err != nil {
			b.Fatal(err)
		}
	}
}
