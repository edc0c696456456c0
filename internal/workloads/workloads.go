// Package workloads defines the seven benchmarks of the paper's
// evaluation at their published problem sizes (Tables II and IV), wired
// up as task.Specs runnable on both execution paths, with functional
// input/output hooks for correctness validation at small scales.
//
// # Calibration
//
// The micro-benchmarks (VectorAdd, NAS EP) are calibrated directly
// against Table II: the simulated Tinit, Tdata_in, Tcomp, Tdata_out and
// Tctx_switch reproduce the paper's measured values, and the resulting
// Table III speedups follow.
//
// The five application benchmarks have no published absolute times, so
// each carries a WorkScale factor: a multiplier on the kernels'
// cycle-cost model accounting for the gap between our throughput-model
// estimate and the efficiency of the paper's 2010-era research kernels
// (latency-bound stencils, unoptimized sparse gathers, timing-loop
// repetitions). WorkScale values are chosen so the simulated per-task
// compute times land at the scale implied by the paper's reported
// speedup band (1.4x-4.1x at 8 processes, MG and CG highest);
// EXPERIMENTS.md tabulates paper-vs-simulated for every figure.
package workloads

import (
	"fmt"
	"math"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/kernels"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
)

// Class is the paper's application profile classification (Table IV).
type Class string

// The three profiles of Table IV.
const (
	IOIntensive   Class = "I/O-intensive"
	CompIntensive Class = "Comp-intensive"
	Intermediate  Class = "Intermediate"
)

// Workload is one benchmark of the evaluation.
type Workload struct {
	Name        string
	ProblemSize string // Table II/IV problem-size string
	GridSize    int    // Table II/IV grid size
	Class       Class
	// SwitchCost is the per-application context-switch cost; Table II
	// measures 148.226 ms for VectorAdd and 220.599 ms for EP. Zero
	// falls back to the architecture default.
	SwitchCost sim.Duration
	// WorkScale multiplies kernel cycle costs (see package comment).
	WorkScale float64
	// Spec builds process rank's task description.
	Spec func(rank int) *task.Spec
	// Fill populates rank's staged input bytes (functional runs only;
	// nil when the workload has no input).
	Fill func(rank int, buf []byte)
	// Check validates rank's staged output bytes (functional runs only).
	Check func(rank int, out []byte) error
}

// scaled multiplies every kernel's compute cost by the workload's scale.
func scaled(ks []*cuda.Kernel, scale float64) []*cuda.Kernel {
	if scale == 0 || scale == 1 {
		return ks
	}
	for _, k := range ks {
		k.CyclesPerThread *= scale
	}
	return ks
}

// sliceMem adapts a host byte slice to cuda.Memory so the typed views
// can address staged input/output buffers.
type sliceMem []byte

func (s sliceMem) Bytes(p cuda.DevPtr, n int64) []byte { return s[p : int64(p)+n : int64(p)+n] }

// f32view views a region of a host buffer as float32s.
func f32view(buf []byte, off int64, n int) []float32 {
	return cuda.Float32s(sliceMem(buf), cuda.DevPtr(off), n)
}

func f64view(buf []byte, off int64, n int) []float64 {
	return cuda.Float64s(sliceMem(buf), cuda.DevPtr(off), n)
}

// VectorAdd is the I/O-intensive micro-benchmark: c = a + b over n
// float32 elements (paper: 50M elements, 50K grid, Table II).
func VectorAdd(n int) Workload {
	w := Workload{
		Name:        "VectorAdd",
		ProblemSize: fmt.Sprintf("Vector Size = %s (float)", humanCount(n)),
		GridSize:    (n + kernels.VecAddThreadsPerBlock - 1) / kernels.VecAddThreadsPerBlock,
		Class:       IOIntensive,
		SwitchCost:  148226 * sim.Microsecond, // Table II
	}
	w.Spec = func(rank int) *task.Spec {
		return &task.Spec{
			Name:     w.Name,
			InBytes:  int64(2 * n * 4), // a and b
			OutBytes: int64(n * 4),     // c
			Build: func(b *task.Buffers) ([]*cuda.Kernel, error) {
				a := b.In
				bb := b.In + cuda.DevPtr(n*4)
				return []*cuda.Kernel{kernels.NewVecAdd(a, bb, b.Out, n)}, nil
			},
		}
	}
	w.Fill = func(rank int, buf []byte) {
		a := f32view(buf, 0, n)
		b := f32view(buf, int64(n*4), n)
		for i := 0; i < n; i++ {
			a[i] = float32(i%1000) + float32(rank)
			b[i] = float32((i*3)%777) * 0.5
		}
	}
	w.Check = func(rank int, out []byte) error {
		c := f32view(out, 0, n)
		for i := 0; i < n; i++ {
			want := float32(i%1000) + float32(rank) + float32((i*3)%777)*0.5
			if c[i] != want {
				return fmt.Errorf("VectorAdd rank %d: c[%d] = %g, want %g", rank, i, c[i], want)
			}
		}
		return nil
	}
	return w
}

// PaperVectorAdd is Table II's instance: 50M floats.
func PaperVectorAdd() Workload { return VectorAdd(50_000_000) }

// Copy is the protocol micro-benchmark workload: n bytes staged in, n
// bytes staged back, zero kernels. A cycle is purely the H2D/D2H copy
// path plus verb overhead, which is what the ring control plane's
// zero-allocation and zero-syscall tests need in isolation — a kernel
// launch costs an allocation per launch by design, so any workload with
// kernels would mask the control plane's own footprint.
func Copy(n int) Workload {
	w := Workload{
		Name:        "Copy",
		ProblemSize: fmt.Sprintf("%s bytes each way", humanCount(n)),
		Class:       IOIntensive,
	}
	w.Spec = func(rank int) *task.Spec {
		return &task.Spec{Name: w.Name, InBytes: int64(n), OutBytes: int64(n)}
	}
	return w
}

// EP is the compute-intensive micro-benchmark: NAS EP with 2^m pairs on
// a gridBlocks-block grid (paper: class B, M=30, grid 4, Table II).
func EP(m, gridBlocks int) Workload {
	w := Workload{
		Name:        "EP",
		ProblemSize: fmt.Sprintf("Class (M=%d)", m),
		GridSize:    gridBlocks,
		Class:       CompIntensive,
		SwitchCost:  220599 * sim.Microsecond, // Table II
	}
	outFloats := gridBlocks * 12
	w.Spec = func(rank int) *task.Spec {
		return &task.Spec{
			Name:     w.Name,
			InBytes:  0, // EP generates its data on the device
			OutBytes: int64(outFloats) * 8,
			Build: func(b *task.Buffers) ([]*cuda.Kernel, error) {
				return []*cuda.Kernel{kernels.NewEP(m, gridBlocks, b.Out)}, nil
			},
		}
	}
	w.Check = func(rank int, out []byte) error {
		got := kernels.EPCollect(f64view(out, 0, outFloats), gridBlocks)
		want := kernels.EPHost(m)
		if got.Q != want.Q || math.Abs(got.Sx-want.Sx) > 1e-9 || math.Abs(got.Sy-want.Sy) > 1e-9 {
			return fmt.Errorf("EP rank %d: tallies diverge from host reference", rank)
		}
		return nil
	}
	return w
}

// PaperEP is Table II's instance: class B (M=30), grid 4.
func PaperEP() Workload { return EP(30, 4) }

// MM is the dense matrix-multiplication application (Table IV:
// 2048x2048, grid 4096, intermediate profile). The paper's grid of 4096
// blocks corresponds to 32x32 output tiles.
func MM(n int) Workload {
	const tile = 32
	w := Workload{
		Name:        "MM",
		ProblemSize: fmt.Sprintf("%dx%d Matrix", n, n),
		GridSize:    (n / tile) * (n / tile),
		Class:       Intermediate,
		WorkScale:   10, // timing-loop repetitions + kernel efficiency
	}
	w.Spec = func(rank int) *task.Spec {
		return &task.Spec{
			Name:     w.Name,
			InBytes:  int64(2 * n * n * 4),
			OutBytes: int64(n * n * 4),
			Build: func(b *task.Buffers) ([]*cuda.Kernel, error) {
				a := b.In
				bm := b.In + cuda.DevPtr(n*n*4)
				k := kernels.NewMMTiled(a, bm, b.Out, n, tile)
				return scaled([]*cuda.Kernel{k}, w.WorkScale), nil
			},
		}
	}
	w.Fill = func(rank int, buf []byte) {
		a := f32view(buf, 0, n*n)
		b := f32view(buf, int64(n*n*4), n*n)
		for i := range a {
			a[i] = float32((i*7+rank)%13) / 13
			b[i] = float32((i*5)%11) / 11
		}
	}
	w.Check = func(rank int, out []byte) error {
		a := make([]float32, n*n)
		b := make([]float32, n*n)
		for i := range a {
			a[i] = float32((i*7+rank)%13) / 13
			b[i] = float32((i*5)%11) / 11
		}
		want := make([]float32, n*n)
		kernels.MMHost(want, a, b, n)
		got := f32view(out, 0, n*n)
		for i := range want {
			if !cuda.AlmostEqual(float64(got[i]), float64(want[i]), 1e-4) {
				return fmt.Errorf("MM rank %d: C[%d] = %g, want %g", rank, i, got[i], want[i])
			}
		}
		return nil
	}
	return w
}

// PaperMM is Table IV's instance: 2Kx2K.
func PaperMM() Workload { return MM(2048) }

// MG is the NAS MG application (Table IV: class S = 32^3, Nit = 4, grid
// 64, compute-intensive). Each process sends its RHS, runs Nit V-cycle
// iterations (a sequence of stencil kernels), and retrieves the solution
// plus the residual-norm partials.
func MG(n, levels, nit int) Workload {
	w := Workload{
		Name:        "MG",
		ProblemSize: fmt.Sprintf("S(%dx%dx%d Nit=%d)", n, n, n, nit),
		GridSize:    2 * n,
		Class:       CompIntensive,
		WorkScale:   1900, // latency-bound research stencils vs throughput model
	}
	cube := int64(n) * int64(n) * int64(n) * 8
	w.Spec = func(rank int) *task.Spec {
		normBytes := int64(2*n) * 8
		return &task.Spec{
			Name:     w.Name,
			InBytes:  cube,             // v (right-hand side)
			OutBytes: cube + normBytes, // u (solution) + norm partials
			Build: func(b *task.Buffers) ([]*cuda.Kernel, error) {
				st := &kernels.MGState{V: b.In, NormP: b.Out + cuda.DevPtr(cube)}
				edge := n
				lv := make([]kernels.MGLevel, levels)
				for l := levels - 1; l >= 0; l-- {
					sz := int64(edge) * int64(edge) * int64(edge) * 8
					var u cuda.DevPtr
					var err error
					if l == levels-1 {
						u = b.Out // the finest solution is the task output
					} else if u, err = b.NewScratch(sz); err != nil {
						return nil, err
					}
					r, err := b.NewScratch(sz)
					if err != nil {
						return nil, err
					}
					s, err := b.NewScratch(sz)
					if err != nil {
						return nil, err
					}
					lv[l] = kernels.MGLevel{N: edge, U: u, R: r, S: s}
					edge /= 2
				}
				st.Levels = lv
				ks := []*cuda.Kernel{kernels.NewMGZero(st.Finest().U, n)}
				for it := 0; it < nit; it++ {
					ks = append(ks, kernels.BuildMGIteration(st)...)
				}
				return scaled(ks, w.WorkScale), nil
			},
		}
	}
	w.Fill = func(rank int, buf []byte) {
		kernels.MGMakeRHS(f64view(buf, 0, n*n*n), n, uint64(rank)+1)
	}
	w.Check = func(rank int, out []byte) error {
		v := make([]float64, n*n*n)
		kernels.MGMakeRHS(v, n, uint64(rank)+1)
		uWant := make([]float64, n*n*n)
		norms := kernels.MGHostIterate(uWant, v, n, levels, nit)
		uGot := f64view(out, 0, n*n*n)
		for i := range uWant {
			if !cuda.AlmostEqual(uGot[i], uWant[i], 1e-9) {
				return fmt.Errorf("MG rank %d: u[%d] = %g, want %g", rank, i, uGot[i], uWant[i])
			}
		}
		parts := f64view(out, cube, 2*n)
		var sum float64
		for _, x := range parts {
			sum += x
		}
		gotNorm := math.Sqrt(sum / float64(n*n*n))
		if !cuda.AlmostEqual(gotNorm, norms[len(norms)-1], 1e-9) {
			return fmt.Errorf("MG rank %d: final norm %g, want %g", rank, gotNorm, norms[len(norms)-1])
		}
		return nil
	}
	return w
}

// PaperMG is Table IV's instance: class S, 32^3, 4 levels, Nit=4.
func PaperMG() Workload { return MG(32, 4, 4) }

// BlackScholes is the option-pricing application (Table IV: 1M options,
// Nit = 512, grid 480, I/O-intensive profile).
func BlackScholes(n, nit, gridBlocks int) Workload {
	w := Workload{
		Name:        "BlackScholes",
		ProblemSize: fmt.Sprintf("%s call, Nit=%d", humanCount(n), nit),
		GridSize:    gridBlocks,
		Class:       IOIntensive,
		WorkScale:   4, // 2010-era transcendental throughput
	}
	params := kernels.DefaultBSParams()
	w.Spec = func(rank int) *task.Spec {
		return &task.Spec{
			Name:     w.Name,
			InBytes:  int64(3 * n * 4), // spot, strike, expiry
			OutBytes: int64(2 * n * 4), // call, put
			Build: func(b *task.Buffers) ([]*cuda.Kernel, error) {
				s := b.In
				x := b.In + cuda.DevPtr(n*4)
				tm := b.In + cuda.DevPtr(2*n*4)
				call := b.Out
				put := b.Out + cuda.DevPtr(n*4)
				k := kernels.NewBlackScholes(s, x, tm, call, put, n, nit, gridBlocks, params)
				return scaled([]*cuda.Kernel{k}, w.WorkScale), nil
			},
		}
	}
	fill := func(rank int, s, x, tm []float32) {
		for i := range s {
			s[i] = 5 + float32((i+rank)%100)
			x[i] = 1 + float32(i%50)
			tm[i] = 0.25 + float32(i%40)/40*9.75
		}
	}
	w.Fill = func(rank int, buf []byte) {
		fill(rank, f32view(buf, 0, n), f32view(buf, int64(n*4), n), f32view(buf, int64(2*n*4), n))
	}
	w.Check = func(rank int, out []byte) error {
		s := make([]float32, n)
		x := make([]float32, n)
		tm := make([]float32, n)
		fill(rank, s, x, tm)
		wc := make([]float32, n)
		wp := make([]float32, n)
		kernels.BlackScholesHost(wc, wp, s, x, tm, params)
		gc := f32view(out, 0, n)
		gp := f32view(out, int64(n*4), n)
		for i := range wc {
			if gc[i] != wc[i] || gp[i] != wp[i] {
				return fmt.Errorf("BlackScholes rank %d: option %d = (%g,%g), want (%g,%g)",
					rank, i, gc[i], gp[i], wc[i], wp[i])
			}
		}
		return nil
	}
	return w
}

// PaperBlackScholes is Table IV's instance: 1M options, Nit=512, grid 480.
func PaperBlackScholes() Workload { return BlackScholes(1_000_000, 512, 480) }

// CG is the NAS CG application (Table IV: class S, NA=1400, Nit=15, grid
// 8, compute-intensive): Nit outer power-iteration steps, each a 25-step
// CG solve launched as a kernel sequence, with the x-normalization and
// zeta updates between solves.
func CG(na, nonzer, nit, gridBlocks int) Workload {
	w := Workload{
		Name:        "CG",
		ProblemSize: fmt.Sprintf("S(NA=%d, Nit=%d)", na, nit),
		GridSize:    gridBlocks,
		Class:       CompIntensive,
		WorkScale:   40, // latency-bound sparse gathers vs throughput model
	}
	m := kernels.MakeCGMatrix(na, nonzer, kernels.CGClassSShift, 20110711)
	nnz := m.NNZ()
	rowBytes := int64(4 * (na + 1))
	colBytes := int64(4 * nnz)
	valBytes := int64(8 * nnz)
	xBytes := int64(8 * na)
	w.Spec = func(rank int) *task.Spec {
		return &task.Spec{
			Name:     w.Name,
			InBytes:  rowBytes + colBytes + valBytes + xBytes,
			OutBytes: int64(8*na) + 64, // z + the scalars slab (zeta)
			WritesIn: true,             // x is normalized in place
			Build: func(b *task.Buffers) ([]*cuda.Kernel, error) {
				bufs := kernels.CGBuffers{
					N:          na,
					GridBlocks: gridBlocks,
					RowPtr:     b.In,
					Col:        b.In + cuda.DevPtr(rowBytes),
					Val:        b.In + cuda.DevPtr(rowBytes+colBytes),
					X:          b.In + cuda.DevPtr(rowBytes+colBytes+valBytes),
					Z:          b.Out,
					Scalars:    b.Out + cuda.DevPtr(8*na),
				}
				var err error
				alloc := func(sz int64) cuda.DevPtr {
					var p cuda.DevPtr
					if err == nil {
						p, err = b.NewScratch(sz)
					}
					return p
				}
				bufs.R = alloc(int64(8 * na))
				bufs.P = alloc(int64(8 * na))
				bufs.Q = alloc(int64(8 * na))
				bufs.Partial = alloc(int64(16 * gridBlocks))
				if err != nil {
					return nil, err
				}
				ks := kernels.BuildCGBenchmark(bufs, nnz, kernels.CGInnerSteps, nit, kernels.CGClassSShift)
				return scaled(ks, w.WorkScale), nil
			},
		}
	}
	w.Fill = func(rank int, buf []byte) {
		copy(buf[0:], int32Bytes(m.RowPtr))
		copy(buf[rowBytes:], int32Bytes(m.Col))
		copy(buf[rowBytes+colBytes:], cuda.HostFloat64Bytes(m.Val))
		x := f64view(buf, rowBytes+colBytes+valBytes, na)
		for i := range x {
			x[i] = 1
		}
	}
	w.Check = func(rank int, out []byte) error {
		zWant, zetaWant := kernels.CGHostOuter(m, nit, kernels.CGInnerSteps, kernels.CGClassSShift)
		zGot := f64view(out, 0, na)
		for i := range zWant {
			if !cuda.AlmostEqual(zGot[i], zWant[i], 1e-9) {
				return fmt.Errorf("CG rank %d: z[%d] = %g, want %g", rank, i, zGot[i], zWant[i])
			}
		}
		zetaGot := kernels.CGZeta(f64view(out, int64(8*na), 8))
		if !cuda.AlmostEqual(zetaGot, zetaWant, 1e-9) {
			return fmt.Errorf("CG rank %d: zeta = %g, want %g", rank, zetaGot, zetaWant)
		}
		return nil
	}
	return w
}

func int32Bytes(v []int32) []byte {
	out := make([]byte, len(v)*4)
	copy(cuda.Int32s(sliceMem(out), 0, len(v)), v)
	return out
}

// PaperCG is Table IV's instance: class S.
func PaperCG() Workload {
	return CG(kernels.CGClassSNA, kernels.CGClassSNonzer, kernels.CGClassSNiter, 8)
}

// Electrostatics is the molecular electrostatics application (Table IV:
// 100K atoms, Nit = 25, grid 288, compute-intensive).
func Electrostatics(natoms, nit, gridBlocks, gridX, gridY int) Workload {
	p := kernels.ESParams{GridX: gridX, GridY: gridY, Spacing: 0.5, Z: 0.5}
	w := Workload{
		Name:        "Electrostatics",
		ProblemSize: fmt.Sprintf("%s atoms, Nit=%d", humanCount(natoms), nit),
		GridSize:    gridBlocks,
		Class:       CompIntensive,
		WorkScale:   0.15, // SFU dual-issue: effective rsqrt cost below the 9-cycle estimate
	}
	points := gridX * gridY
	w.Spec = func(rank int) *task.Spec {
		return &task.Spec{
			Name:     w.Name,
			InBytes:  int64(natoms * 4 * 4),
			OutBytes: int64(points * 4),
			Build: func(b *task.Buffers) ([]*cuda.Kernel, error) {
				k := kernels.NewElectrostatics(b.In, b.Out, natoms, nit, gridBlocks, p)
				return scaled([]*cuda.Kernel{k}, w.WorkScale), nil
			},
		}
	}
	fillAtoms := func(rank int, atoms []float32) {
		for i := 0; i < natoms; i++ {
			atoms[4*i] = float32((i*13+rank)%97) * 0.61
			atoms[4*i+1] = float32((i*7)%89) * 0.53
			atoms[4*i+2] = float32((i*3)%31) * 0.47
			atoms[4*i+3] = float32(i%3) - 1
		}
	}
	w.Fill = func(rank int, buf []byte) { fillAtoms(rank, f32view(buf, 0, natoms*4)) }
	w.Check = func(rank int, out []byte) error {
		atoms := make([]float32, natoms*4)
		fillAtoms(rank, atoms)
		want := make([]float32, points)
		kernels.ElectrostaticsHost(want, atoms, natoms, nit, p)
		got := f32view(out, 0, points)
		for i := range want {
			if !cuda.AlmostEqual(float64(got[i]), float64(want[i]), 1e-5) {
				return fmt.Errorf("Electrostatics rank %d: point %d = %g, want %g", rank, i, got[i], want[i])
			}
		}
		return nil
	}
	return w
}

// PaperElectrostatics is Table IV's instance: 100K atoms, Nit=25, grid
// 288 (a 256x144 lattice slice).
func PaperElectrostatics() Workload { return Electrostatics(100_000, 25, 288, 256, 144) }

// PaperApplications returns the five Table IV application benchmarks in
// the paper's order.
func PaperApplications() []Workload {
	return []Workload{PaperMM(), PaperMG(), PaperBlackScholes(), PaperCG(), PaperElectrostatics()}
}

// humanCount formats 50_000_000 as "50M", 100_000 as "100K".
func humanCount(n int) string {
	switch {
	case n%1_000_000 == 0:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n%1_000 == 0:
		return fmt.Sprintf("%dK", n/1_000)
	default:
		return fmt.Sprintf("%d", n)
	}
}
