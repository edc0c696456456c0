package kernels

import (
	"math"
	"sort"

	"gpuvirt/internal/cuda"
)

// NAS CG (paper Table IV: class S, NA = 1400, Nit = 15, grid size 8)
// estimates the smallest eigenvalue of a sparse symmetric positive
// definite matrix by inverse power iteration: each of the Nit outer
// iterations runs 25 steps of conjugate gradient to solve A z = x, then
// computes zeta = shift + 1/(x.z) and normalizes x = z/||z||.
//
// The GPU version launches a short kernel sequence per CG step, exactly
// like real CUDA CG codes: the matvec + partial dot products, a scalar
// reduction, the vector updates + partial dots, and a second reduction.
// Global synchronization between steps is the kernel boundary.

// CG class parameters (NAS class S).
const (
	CGClassSNA      = 1400
	CGClassSNonzer  = 7
	CGClassSShift   = 10.0
	CGClassSNiter   = 15
	CGInnerSteps    = 25
	CGThreadsPerRow = 512 // threads per block (the paper's 8-block grid over NA=1400)
)

// CSR is a compressed-sparse-row symmetric matrix.
type CSR struct {
	N      int
	RowPtr []int32
	Col    []int32
	Val    []float64
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// MakeCGMatrix builds a deterministic sparse symmetric diagonally
// dominant (hence SPD) matrix in the spirit of NAS makea: ~nonzer random
// off-diagonal entries per row, symmetrized, with the diagonal set to
// shift + sum of the row's absolute off-diagonals.
func MakeCGMatrix(n, nonzer int, shift float64, seed uint64) *CSR {
	state := seed | 1
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	type entry struct {
		col int32
		val float64
	}
	rows := make([]map[int32]float64, n)
	for i := range rows {
		rows[i] = make(map[int32]float64)
	}
	for i := 0; i < n; i++ {
		for k := 0; k < nonzer-1; k++ {
			j := int(next() % uint64(n))
			if j == i {
				continue
			}
			v := float64(next()%2000)/1000.0 - 1.0 // [-1, 1)
			rows[i][int32(j)] = v
			rows[j][int32(i)] = v // symmetrize
		}
	}
	m := &CSR{N: n, RowPtr: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		es := make([]entry, 0, len(rows[i])+1)
		for c, v := range rows[i] {
			es = append(es, entry{c, v})
		}
		sort.Slice(es, func(a, b int) bool { return es[a].col < es[b].col })
		// Sum after sorting: accumulating during the map range would make
		// the diagonal depend on map iteration order (float addition is
		// not associative), breaking the promised bit-determinism.
		var sum float64
		for _, e := range es {
			sum += math.Abs(e.val)
		}
		es = append(es, entry{int32(i), shift + sum + 1})
		sort.Slice(es, func(a, b int) bool { return es[a].col < es[b].col })
		for _, e := range es {
			m.Col = append(m.Col, e.col)
			m.Val = append(m.Val, e.val)
		}
		m.RowPtr[i+1] = int32(len(m.Col))
	}
	return m
}

// MatVec computes y = A x on the host.
func (m *CSR) MatVec(y, x []float64) {
	for i := 0; i < m.N; i++ {
		var sum float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			sum += m.Val[k] * x[m.Col[k]]
		}
		y[i] = sum
	}
}

// CGHostSolve runs `steps` CG iterations for A z = x starting from z = 0,
// returning z and the final residual norm (host reference).
func CGHostSolve(m *CSR, x []float64, steps int) (z []float64, rnorm float64) {
	n := m.N
	z = make([]float64, n)
	r := make([]float64, n)
	p := make([]float64, n)
	q := make([]float64, n)
	copy(r, x)
	copy(p, r)
	rho := dot(r, r)
	for it := 0; it < steps; it++ {
		m.MatVec(q, p)
		alpha := rho / dot(p, q)
		for i := 0; i < n; i++ {
			z[i] += alpha * p[i]
			r[i] -= alpha * q[i]
		}
		rho0 := rho
		rho = dot(r, r)
		beta := rho / rho0
		for i := 0; i < n; i++ {
			p[i] = r[i] + beta*p[i]
		}
	}
	// Residual of the solve: ||x - A z||.
	m.MatVec(q, z)
	var sum float64
	for i := 0; i < n; i++ {
		d := x[i] - q[i]
		sum += d * d
	}
	return z, math.Sqrt(sum)
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// CGBuffers is the device layout of one CG solve. Scalars live in a small
// device array: [rho, rho0, alpha, beta, pq] at fixed slots.
type CGBuffers struct {
	N             int
	GridBlocks    int
	RowPtr        cuda.DevPtr // int32 x (N+1)
	Col           cuda.DevPtr // int32 x NNZ
	Val           cuda.DevPtr // float64 x NNZ
	X, Z, R, P, Q cuda.DevPtr // float64 x N
	Partial       cuda.DevPtr // float64 x 2*GridBlocks, per-block partial dots
	Scalars       cuda.DevPtr // float64 x 8
}

const (
	cgScalarRho = iota
	cgScalarRho0
	cgScalarAlpha
	cgScalarBeta
	cgScalarPQ
	cgScalarZeta
	cgScalarZNorm
	cgScalarCount = 8
)

// CGZeta reads the final zeta estimate from the scalars slab retrieved
// off the device (float64 slice of length >= cgScalarCount).
func CGZeta(scalars []float64) float64 { return scalars[cgScalarZeta] }

// cgStrip returns the row range a block owns.
func cgStrip(bc *cuda.BlockCtx, n int) (lo, hi int) {
	blocks := bc.GridDim.Count()
	b := bc.BlockIdx.Flat(bc.GridDim)
	lo = b * n / blocks
	hi = (b + 1) * n / blocks
	return
}

// cgLatencyCycles is the effective lane-cycles per stored nonzero of the
// sparse matvec. Sparse gather on Fermi is latency-bound at class-S
// occupancy, so this is far above the 2-flop arithmetic cost; the value
// calibrates class S to a compute-intensive profile as in the paper.
const cgLatencyCycles = 340.0

// NewCGInit builds the solve-start kernel: z=0, r=x, p=x, partial rho.
func NewCGInit(b CGBuffers) *cuda.Kernel {
	return &cuda.Kernel{
		Name:            "cg-init",
		Grid:            cuda.Dim(b.GridBlocks),
		Block:           cuda.Dim(CGThreadsPerRow),
		RegsPerThread:   16,
		CyclesPerThread: float64(b.N) / float64(b.GridBlocks*CGThreadsPerRow) * 8,
		Args:            []any{b},
		Func: func(bc *cuda.BlockCtx) {
			b := bc.Arg(0).(CGBuffers)
			x := cuda.Float64s(bc.Mem, b.X, b.N)
			z := cuda.Float64s(bc.Mem, b.Z, b.N)
			r := cuda.Float64s(bc.Mem, b.R, b.N)
			p := cuda.Float64s(bc.Mem, b.P, b.N)
			part := cuda.Float64s(bc.Mem, b.Partial, b.GridBlocks)
			lo, hi := cgStrip(bc, b.N)
			var rho float64
			for i := lo; i < hi; i++ {
				z[i] = 0
				r[i] = x[i]
				p[i] = x[i]
				rho += x[i] * x[i]
			}
			part[bc.BlockIdx.Flat(bc.GridDim)] = rho
		},
	}
}

// NewCGReduceRho builds the single-block reduction storing
// rho = sum(partial) into the scalar slot.
func NewCGReduceRho(b CGBuffers) *cuda.Kernel {
	return newCGReduce("cg-reduce-rho", b, func(sc, part []float64) {
		var s float64
		for _, v := range part {
			s += v
		}
		sc[cgScalarRho] = s
	})
}

func newCGReduce(name string, b CGBuffers, fn func(scalars, partial []float64)) *cuda.Kernel {
	return &cuda.Kernel{
		Name:            name,
		Grid:            cuda.Dim(1),
		Block:           cuda.Dim(32),
		RegsPerThread:   10,
		CyclesPerThread: float64(b.GridBlocks) * 4,
		SerialOnly:      true, // cross-block reduction over the per-block partials
		Args:            []any{b},
		Func: func(bc *cuda.BlockCtx) {
			b := bc.Arg(0).(CGBuffers)
			sc := cuda.Float64s(bc.Mem, b.Scalars, cgScalarCount)
			part := cuda.Float64s(bc.Mem, b.Partial, b.GridBlocks)
			fn(sc, part)
		},
	}
}

// NewCGMatvecDot builds q = A p plus per-block partial p.q.
func NewCGMatvecDot(b CGBuffers, nnz int) *cuda.Kernel {
	return &cuda.Kernel{
		Name:            "cg-matvec",
		Grid:            cuda.Dim(b.GridBlocks),
		Block:           cuda.Dim(CGThreadsPerRow),
		RegsPerThread:   24,
		CyclesPerThread: float64(nnz) / float64(b.GridBlocks*CGThreadsPerRow) * cgLatencyCycles,
		Args:            []any{b, nnz},
		Func: func(bc *cuda.BlockCtx) {
			b := bc.Arg(0).(CGBuffers)
			nnz := bc.Int(1)
			rowPtr := cuda.Int32s(bc.Mem, b.RowPtr, b.N+1)
			col := cuda.Int32s(bc.Mem, b.Col, nnz)
			val := cuda.Float64s(bc.Mem, b.Val, nnz)
			p := cuda.Float64s(bc.Mem, b.P, b.N)
			q := cuda.Float64s(bc.Mem, b.Q, b.N)
			part := cuda.Float64s(bc.Mem, b.Partial, b.GridBlocks)
			lo, hi := cgStrip(bc, b.N)
			var pq float64
			for i := lo; i < hi; i++ {
				var sum float64
				for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
					sum += val[k] * p[col[k]]
				}
				q[i] = sum
				pq += p[i] * sum
			}
			part[bc.BlockIdx.Flat(bc.GridDim)] = pq
		},
	}
}

// NewCGReduceAlpha builds the reduction alpha = rho / sum(partial pq),
// also saving rho0 = rho.
func NewCGReduceAlpha(b CGBuffers) *cuda.Kernel {
	return newCGReduce("cg-reduce-alpha", b, func(sc, part []float64) {
		var pq float64
		for _, v := range part {
			pq += v
		}
		sc[cgScalarPQ] = pq
		sc[cgScalarRho0] = sc[cgScalarRho]
		sc[cgScalarAlpha] = sc[cgScalarRho] / pq
	})
}

// NewCGUpdateDot builds z += alpha p, r -= alpha q, partial r.r.
func NewCGUpdateDot(b CGBuffers) *cuda.Kernel {
	return &cuda.Kernel{
		Name:            "cg-update",
		Grid:            cuda.Dim(b.GridBlocks),
		Block:           cuda.Dim(CGThreadsPerRow),
		RegsPerThread:   18,
		CyclesPerThread: float64(b.N) / float64(b.GridBlocks*CGThreadsPerRow) * 12,
		Args:            []any{b},
		Func: func(bc *cuda.BlockCtx) {
			b := bc.Arg(0).(CGBuffers)
			sc := cuda.Float64s(bc.Mem, b.Scalars, cgScalarCount)
			alpha := sc[cgScalarAlpha]
			z := cuda.Float64s(bc.Mem, b.Z, b.N)
			r := cuda.Float64s(bc.Mem, b.R, b.N)
			p := cuda.Float64s(bc.Mem, b.P, b.N)
			q := cuda.Float64s(bc.Mem, b.Q, b.N)
			part := cuda.Float64s(bc.Mem, b.Partial, b.GridBlocks)
			lo, hi := cgStrip(bc, b.N)
			var rr float64
			for i := lo; i < hi; i++ {
				z[i] += alpha * p[i]
				r[i] -= alpha * q[i]
				rr += r[i] * r[i]
			}
			part[bc.BlockIdx.Flat(bc.GridDim)] = rr
		},
	}
}

// NewCGReduceBeta builds rho = sum(partial rr), beta = rho/rho0.
func NewCGReduceBeta(b CGBuffers) *cuda.Kernel {
	return newCGReduce("cg-reduce-beta", b, func(sc, part []float64) {
		var rr float64
		for _, v := range part {
			rr += v
		}
		sc[cgScalarRho] = rr
		sc[cgScalarBeta] = rr / sc[cgScalarRho0]
	})
}

// NewCGPUpdate builds p = r + beta p.
func NewCGPUpdate(b CGBuffers) *cuda.Kernel {
	return &cuda.Kernel{
		Name:            "cg-pupdate",
		Grid:            cuda.Dim(b.GridBlocks),
		Block:           cuda.Dim(CGThreadsPerRow),
		RegsPerThread:   14,
		CyclesPerThread: float64(b.N) / float64(b.GridBlocks*CGThreadsPerRow) * 6,
		Args:            []any{b},
		Func: func(bc *cuda.BlockCtx) {
			b := bc.Arg(0).(CGBuffers)
			sc := cuda.Float64s(bc.Mem, b.Scalars, cgScalarCount)
			beta := sc[cgScalarBeta]
			r := cuda.Float64s(bc.Mem, b.R, b.N)
			p := cuda.Float64s(bc.Mem, b.P, b.N)
			lo, hi := cgStrip(bc, b.N)
			for i := lo; i < hi; i++ {
				p[i] = r[i] + beta*p[i]
			}
		},
	}
}

// BuildCGSolve returns the kernel sequence of one complete CG solve
// (init + `steps` iterations), ~4 launches per step like real GPU CG.
func BuildCGSolve(b CGBuffers, nnz, steps int) []*cuda.Kernel {
	ks := []*cuda.Kernel{NewCGInit(b), NewCGReduceRho(b)}
	for s := 0; s < steps; s++ {
		ks = append(ks,
			NewCGMatvecDot(b, nnz),
			NewCGReduceAlpha(b),
			NewCGUpdateDot(b),
			NewCGReduceBeta(b),
			NewCGPUpdate(b),
		)
	}
	return ks
}

// NewCGZDots builds the per-block partial dots of the outer iteration:
// partial[2b] = z.z over the block's strip, partial[2b+1] = x.z.
// The Partial buffer must hold 2*GridBlocks float64s.
func NewCGZDots(b CGBuffers) *cuda.Kernel {
	return &cuda.Kernel{
		Name:            "cg-zdots",
		Grid:            cuda.Dim(b.GridBlocks),
		Block:           cuda.Dim(CGThreadsPerRow),
		RegsPerThread:   16,
		CyclesPerThread: float64(b.N) / float64(b.GridBlocks*CGThreadsPerRow) * 8,
		Args:            []any{b},
		Func: func(bc *cuda.BlockCtx) {
			b := bc.Arg(0).(CGBuffers)
			x := cuda.Float64s(bc.Mem, b.X, b.N)
			z := cuda.Float64s(bc.Mem, b.Z, b.N)
			part := cuda.Float64s(bc.Mem, b.Partial, 2*b.GridBlocks)
			lo, hi := cgStrip(bc, b.N)
			var zz, xz float64
			for i := lo; i < hi; i++ {
				zz += z[i] * z[i]
				xz += x[i] * z[i]
			}
			blk := bc.BlockIdx.Flat(bc.GridDim)
			part[2*blk] = zz
			part[2*blk+1] = xz
		},
	}
}

// NewCGOuterReduce builds the outer-iteration scalar step: zeta = shift
// + 1/(x.z) and the norm ||z|| for the upcoming x update.
func NewCGOuterReduce(b CGBuffers, shift float64) *cuda.Kernel {
	return &cuda.Kernel{
		Name:            "cg-outer-reduce",
		Grid:            cuda.Dim(1),
		Block:           cuda.Dim(32),
		RegsPerThread:   10,
		CyclesPerThread: float64(b.GridBlocks) * 6,
		SerialOnly:      true, // cross-block reduction over the per-block partials
		Args:            []any{b, shift},
		Func: func(bc *cuda.BlockCtx) {
			b := bc.Arg(0).(CGBuffers)
			shift := bc.Float64Arg(1)
			sc := cuda.Float64s(bc.Mem, b.Scalars, cgScalarCount)
			part := cuda.Float64s(bc.Mem, b.Partial, 2*b.GridBlocks)
			var zz, xz float64
			for i := 0; i < b.GridBlocks; i++ {
				zz += part[2*i]
				xz += part[2*i+1]
			}
			sc[cgScalarZeta] = shift + 1/xz
			sc[cgScalarZNorm] = math.Sqrt(zz)
		},
	}
}

// NewCGXUpdate builds x = z / ||z||, the power-iteration step.
func NewCGXUpdate(b CGBuffers) *cuda.Kernel {
	return &cuda.Kernel{
		Name:            "cg-xupdate",
		Grid:            cuda.Dim(b.GridBlocks),
		Block:           cuda.Dim(CGThreadsPerRow),
		RegsPerThread:   12,
		CyclesPerThread: float64(b.N) / float64(b.GridBlocks*CGThreadsPerRow) * 6,
		Args:            []any{b},
		Func: func(bc *cuda.BlockCtx) {
			b := bc.Arg(0).(CGBuffers)
			sc := cuda.Float64s(bc.Mem, b.Scalars, cgScalarCount)
			norm := sc[cgScalarZNorm]
			x := cuda.Float64s(bc.Mem, b.X, b.N)
			z := cuda.Float64s(bc.Mem, b.Z, b.N)
			lo, hi := cgStrip(bc, b.N)
			for i := lo; i < hi; i++ {
				x[i] = z[i] / norm
			}
		},
	}
}

// BuildCGBenchmark returns the full NAS CG kernel sequence: outer
// power-iteration steps, each a CG solve followed by the zeta/norm
// reduction and the x update. The Partial buffer must hold
// 2*GridBlocks float64s.
func BuildCGBenchmark(b CGBuffers, nnz, innerSteps, outerIters int, shift float64) []*cuda.Kernel {
	var ks []*cuda.Kernel
	for it := 0; it < outerIters; it++ {
		ks = append(ks, BuildCGSolve(b, nnz, innerSteps)...)
		ks = append(ks, NewCGZDots(b), NewCGOuterReduce(b, shift), NewCGXUpdate(b))
	}
	return ks
}

// CGHostOuter runs the full outer iteration on the host and returns the
// final z vector and zeta (reference for the device sequence).
func CGHostOuter(m *CSR, niter, innerSteps int, shift float64) (z []float64, zeta float64) {
	n := m.N
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	for it := 0; it < niter; it++ {
		z, _ = CGHostSolve(m, x, innerSteps)
		zeta = shift + 1/dot(x, z)
		norm := math.Sqrt(dot(z, z))
		for i := range x {
			x[i] = z[i] / norm
		}
	}
	return z, zeta
}
