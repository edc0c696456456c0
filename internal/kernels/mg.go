package kernels

import (
	"math"

	"gpuvirt/internal/cuda"
)

// NAS MG (paper Table IV: class S, 32^3 grid, Nit = 4, grid size 64) is a
// V-cycle multigrid solver for the 3-D Poisson equation with periodic
// boundaries. The GPU version launches one kernel per multigrid operator
// (resid, rprj3, interp, psinv), exactly like real CUDA ports of MG: the
// global synchronization between stencil sweeps is the kernel boundary.
//
// The operators use the NAS class-S coefficient sets:
//
//	A (resid):  [-8/3,  0,    1/6,  1/12]
//	C (psinv):  [-3/8,  1/32, -1/64, 0]
//
// indexed by neighbor distance class (center, face, edge, corner).

// MGBlockThreads is the thread count per MG stencil block.
const MGBlockThreads = 128

var mgA = [4]float64{-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0}
var mgC = [4]float64{-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0}

// MGLevel is one grid level's device storage.
type MGLevel struct {
	N       int         // points per edge (power of two)
	U, R, S cuda.DevPtr // solution, residual, scratch (N^3 float64 each)
}

// MGState holds all device buffers of an MG solve.
type MGState struct {
	Levels []MGLevel   // Levels[0] is the coarsest, last is the finest
	V      cuda.DevPtr // right-hand side on the finest grid
	NormP  cuda.DevPtr // per-block partial squared norms (finest grid size)
}

// Finest returns the finest level.
func (s *MGState) Finest() MGLevel { return s.Levels[len(s.Levels)-1] }

// mgGridBlocks is the launch grid for a level of edge n: n z-slabs split
// into two y-halves (class S: 32 -> 64 blocks, the paper's grid size).
func mgGridBlocks(n int) int { return 2 * n }

func mgGridDim(n int) cuda.Dim3 { return cuda.Dim(n, 2) }

// mgCycles estimates lane-cycles per thread for a stencil kernel over an
// n-edge grid: ~points-per-thread x cycles-per-point.
func mgCycles(n int, perPoint float64) float64 {
	points := float64(n) * float64(n) * float64(n)
	threads := float64(mgGridBlocks(n) * MGBlockThreads)
	return points / threads * perPoint
}

// mgSlab returns the [z0,z1) x [y0,y1) slab owned by a block.
func mgSlab(bc *cuda.BlockCtx, n int) (z0, z1, y0, y1 int) {
	z0 = bc.BlockIdx.X
	z1 = z0 + 1
	half := n / 2
	y0 = bc.BlockIdx.Y * half
	y1 = y0 + half
	if n == 1 { // degenerate coarsest grids
		if bc.BlockIdx.X > 0 || bc.BlockIdx.Y > 0 {
			return 0, 0, 0, 0
		}
		return 0, 1, 0, 1
	}
	return
}

// stencil27 applies the 4-coefficient 27-point stencil of NAS MG to u at
// (x,y,z) with periodic wrap (n is a power of two).
func stencil27(u []float64, n, x, y, z int, coef [4]float64) float64 {
	mask := n - 1
	idx := func(x, y, z int) int {
		return ((z&mask)*n+(y&mask))*n + (x & mask)
	}
	sum := coef[0] * u[idx(x, y, z)]
	if coef[1] != 0 {
		sum += coef[1] * (u[idx(x-1, y, z)] + u[idx(x+1, y, z)] +
			u[idx(x, y-1, z)] + u[idx(x, y+1, z)] +
			u[idx(x, y, z-1)] + u[idx(x, y, z+1)])
	}
	if coef[2] != 0 {
		sum += coef[2] * (u[idx(x-1, y-1, z)] + u[idx(x+1, y-1, z)] +
			u[idx(x-1, y+1, z)] + u[idx(x+1, y+1, z)] +
			u[idx(x-1, y, z-1)] + u[idx(x+1, y, z-1)] +
			u[idx(x-1, y, z+1)] + u[idx(x+1, y, z+1)] +
			u[idx(x, y-1, z-1)] + u[idx(x, y+1, z-1)] +
			u[idx(x, y-1, z+1)] + u[idx(x, y+1, z+1)])
	}
	if coef[3] != 0 {
		sum += coef[3] * (u[idx(x-1, y-1, z-1)] + u[idx(x+1, y-1, z-1)] +
			u[idx(x-1, y+1, z-1)] + u[idx(x+1, y+1, z-1)] +
			u[idx(x-1, y-1, z+1)] + u[idx(x+1, y-1, z+1)] +
			u[idx(x-1, y+1, z+1)] + u[idx(x+1, y+1, z+1)])
	}
	return sum
}

// newMGKernel wraps common launch parameters for a level of edge n.
func newMGKernel(name string, n int, perPoint float64, args []any, fn cuda.BlockFunc) *cuda.Kernel {
	return &cuda.Kernel{
		Name:            name,
		Grid:            mgGridDim(n),
		Block:           cuda.Dim(MGBlockThreads),
		RegsPerThread:   28,
		CyclesPerThread: mgCycles(n, perPoint),
		Args:            args,
		Func:            fn,
	}
}

// NewMGZero builds u[:] = 0 on an n-edge level.
func NewMGZero(u cuda.DevPtr, n int) *cuda.Kernel {
	return newMGKernel("mg-zero", n, 2, []any{u, n}, func(bc *cuda.BlockCtx) {
		n := bc.Int(1)
		uv := cuda.Float64s(bc.Mem, bc.Ptr(0), n*n*n)
		z0, z1, y0, y1 := mgSlab(bc, n)
		for z := z0; z < z1; z++ {
			for y := y0; y < y1; y++ {
				row := (z*n + y) * n
				for x := 0; x < n; x++ {
					uv[row+x] = 0
				}
			}
		}
	})
}

// NewMGResid builds r = v - A u on an n-edge level (r distinct from u,v).
func NewMGResid(u, v, r cuda.DevPtr, n int) *cuda.Kernel {
	return newMGKernel("mg-resid", n, 55, []any{u, v, r, n}, func(bc *cuda.BlockCtx) {
		n := bc.Int(3)
		uv := cuda.Float64s(bc.Mem, bc.Ptr(0), n*n*n)
		vv := cuda.Float64s(bc.Mem, bc.Ptr(1), n*n*n)
		rv := cuda.Float64s(bc.Mem, bc.Ptr(2), n*n*n)
		z0, z1, y0, y1 := mgSlab(bc, n)
		for z := z0; z < z1; z++ {
			for y := y0; y < y1; y++ {
				for x := 0; x < n; x++ {
					rv[(z*n+y)*n+x] = vv[(z*n+y)*n+x] - stencil27(uv, n, x, y, z, mgA)
				}
			}
		}
	})
}

// NewMGPsinv builds u += C (x) r, the NAS smoother.
func NewMGPsinv(r, u cuda.DevPtr, n int) *cuda.Kernel {
	return newMGKernel("mg-psinv", n, 45, []any{r, u, n}, func(bc *cuda.BlockCtx) {
		n := bc.Int(2)
		rv := cuda.Float64s(bc.Mem, bc.Ptr(0), n*n*n)
		uv := cuda.Float64s(bc.Mem, bc.Ptr(1), n*n*n)
		z0, z1, y0, y1 := mgSlab(bc, n)
		for z := z0; z < z1; z++ {
			for y := y0; y < y1; y++ {
				for x := 0; x < n; x++ {
					uv[(z*n+y)*n+x] += stencil27(rv, n, x, y, z, mgC)
				}
			}
		}
	})
}

// NewMGRprj3 builds the full-weighting restriction of rf (edge nf) onto
// rc (edge nf/2).
func NewMGRprj3(rf cuda.DevPtr, nf int, rc cuda.DevPtr) *cuda.Kernel {
	nc := nf / 2
	return newMGKernel("mg-rprj3", nc, 60, []any{rf, nf, rc}, func(bc *cuda.BlockCtx) {
		nf := bc.Int(1)
		nc := nf / 2
		rfv := cuda.Float64s(bc.Mem, bc.Ptr(0), nf*nf*nf)
		rcv := cuda.Float64s(bc.Mem, bc.Ptr(2), nc*nc*nc)
		mask := nf - 1
		idx := func(x, y, z int) int { return ((z&mask)*nf+(y&mask))*nf + (x & mask) }
		z0, z1, y0, y1 := mgSlab(bc, nc)
		for cz := z0; cz < z1; cz++ {
			for cy := y0; cy < y1; cy++ {
				for cx := 0; cx < nc; cx++ {
					fx, fy, fz := 2*cx, 2*cy, 2*cz
					var sum float64
					for dz := -1; dz <= 1; dz++ {
						for dy := -1; dy <= 1; dy++ {
							for dx := -1; dx <= 1; dx++ {
								sum += restrictWeight(dx, dy, dz) * rfv[idx(fx+dx, fy+dy, fz+dz)]
							}
						}
					}
					rcv[(cz*nc+cy)*nc+cx] = sum
				}
			}
		}
	})
}

// restrictWeight is the separable 3-D full-weighting coefficient
// (1/2)^[dx!=0] x (1/2)^[dy!=0] x (1/2)^[dz!=0] / 8, i.e. 1/8 for the
// center, 1/16 per face, 1/32 per edge, 1/64 per corner; the weights sum
// to 1 so restriction preserves constants.
func restrictWeight(dx, dy, dz int) float64 {
	w := 1.0 / 8.0
	for _, d := range [3]int{dx, dy, dz} {
		if d != 0 {
			w *= 0.5
		}
	}
	return w
}

// NewMGInterp builds the trilinear prolongation: uf (edge 2*nc) += P uc.
func NewMGInterp(uc cuda.DevPtr, nc int, uf cuda.DevPtr) *cuda.Kernel {
	nf := nc * 2
	return newMGKernel("mg-interp", nf, 25, []any{uc, nc, uf}, func(bc *cuda.BlockCtx) {
		nc := bc.Int(1)
		nf := nc * 2
		ucv := cuda.Float64s(bc.Mem, bc.Ptr(0), nc*nc*nc)
		ufv := cuda.Float64s(bc.Mem, bc.Ptr(2), nf*nf*nf)
		cmask := nc - 1
		cidx := func(x, y, z int) int { return ((z&cmask)*nc+(y&cmask))*nc + (x & cmask) }
		z0, z1, y0, y1 := mgSlab(bc, nf)
		for fz := z0; fz < z1; fz++ {
			for fy := y0; fy < y1; fy++ {
				for fx := 0; fx < nf; fx++ {
					cx, cy, cz := fx/2, fy/2, fz/2
					var val float64
					// Trilinear weights: each odd coordinate averages the
					// two bracketing coarse points.
					for _, p := range [2]int{0, 1} {
						for _, q := range [2]int{0, 1} {
							for _, s := range [2]int{0, 1} {
								wx := interpW(fx, p)
								wy := interpW(fy, q)
								wz := interpW(fz, s)
								if wx == 0 || wy == 0 || wz == 0 {
									continue
								}
								val += wx * wy * wz * ucv[cidx(cx+p, cy+q, cz+s)]
							}
						}
					}
					ufv[(fz*nf+fy)*nf+fx] += val
				}
			}
		}
	})
}

// interpW is the 1-D linear interpolation weight of coarse neighbor
// offset p (0 or 1) for fine coordinate f.
func interpW(f, p int) float64 {
	if f%2 == 0 { // coincides with coarse point f/2
		if p == 0 {
			return 1
		}
		return 0
	}
	return 0.5
}

// NewMGNorm builds the squared-norm reduction of r into per-block
// partials (one float64 per block).
func NewMGNorm(r cuda.DevPtr, n int, partials cuda.DevPtr) *cuda.Kernel {
	return newMGKernel("mg-norm", n, 6, []any{r, n, partials}, func(bc *cuda.BlockCtx) {
		n := bc.Int(1)
		rv := cuda.Float64s(bc.Mem, bc.Ptr(0), n*n*n)
		pv := cuda.Float64s(bc.Mem, bc.Ptr(2), bc.GridDim.Count())
		var sum float64
		z0, z1, y0, y1 := mgSlab(bc, n)
		for z := z0; z < z1; z++ {
			for y := y0; y < y1; y++ {
				row := (z*n + y) * n
				for x := 0; x < n; x++ {
					sum += rv[row+x] * rv[row+x]
				}
			}
		}
		pv[bc.BlockIdx.Flat(bc.GridDim)] = sum
	})
}

// BuildMGIteration returns the kernel sequence of one MG iteration
// (resid + V-cycle + final resid/smooth + norm), NAS mg3P structure.
func BuildMGIteration(s *MGState) []*cuda.Kernel {
	var ks []*cuda.Kernel
	f := len(s.Levels) - 1
	fin := s.Levels[f]

	// r_f = v - A u_f
	ks = append(ks, NewMGResid(fin.U, s.V, fin.R, fin.N))
	// Down sweep: restrict residuals.
	for l := f; l > 0; l-- {
		ks = append(ks, NewMGRprj3(s.Levels[l].R, s.Levels[l].N, s.Levels[l-1].R))
	}
	// Coarsest solve: u_0 = smooth(r_0).
	c := s.Levels[0]
	ks = append(ks, NewMGZero(c.U, c.N))
	ks = append(ks, NewMGPsinv(c.R, c.U, c.N))
	// Up sweep.
	for l := 1; l < f; l++ {
		lev := s.Levels[l]
		ks = append(ks, NewMGZero(lev.U, lev.N))
		ks = append(ks, NewMGInterp(s.Levels[l-1].U, s.Levels[l-1].N, lev.U))
		ks = append(ks, NewMGResid(lev.U, lev.R, lev.S, lev.N))
		ks = append(ks, NewMGPsinv(lev.S, lev.U, lev.N))
	}
	// Finest: correct, re-residual, smooth, norm.
	ks = append(ks, NewMGInterp(s.Levels[f-1].U, s.Levels[f-1].N, fin.U))
	ks = append(ks, NewMGResid(fin.U, s.V, fin.R, fin.N))
	ks = append(ks, NewMGPsinv(fin.R, fin.U, fin.N))
	ks = append(ks, NewMGNorm(fin.R, fin.N, s.NormP))
	return ks
}

// MGHostIterate runs iterations of the same MG cycle entirely on the host
// over plain slices (reference implementation for tests). It returns the
// residual L2 norm after each iteration.
func MGHostIterate(u, v []float64, n, levels, iters int) []float64 {
	type lev struct {
		n       int
		u, r, s []float64
	}
	ls := make([]lev, levels)
	edge := n
	for l := levels - 1; l >= 0; l-- {
		ls[l] = lev{n: edge,
			u: make([]float64, edge*edge*edge),
			r: make([]float64, edge*edge*edge),
			s: make([]float64, edge*edge*edge)}
		edge /= 2
	}
	copy(ls[levels-1].u, u)
	f := levels - 1

	resid := func(u, v, r []float64, n int) {
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					r[(z*n+y)*n+x] = v[(z*n+y)*n+x] - stencil27(u, n, x, y, z, mgA)
				}
			}
		}
	}
	psinv := func(r, u []float64, n int) {
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					u[(z*n+y)*n+x] += stencil27(r, n, x, y, z, mgC)
				}
			}
		}
	}
	rprj3 := func(rf []float64, nf int, rc []float64) {
		nc := nf / 2
		mask := nf - 1
		idx := func(x, y, z int) int { return ((z&mask)*nf+(y&mask))*nf + (x & mask) }
		for cz := 0; cz < nc; cz++ {
			for cy := 0; cy < nc; cy++ {
				for cx := 0; cx < nc; cx++ {
					var sum float64
					for dz := -1; dz <= 1; dz++ {
						for dy := -1; dy <= 1; dy++ {
							for dx := -1; dx <= 1; dx++ {
								sum += restrictWeight(dx, dy, dz) * rf[idx(2*cx+dx, 2*cy+dy, 2*cz+dz)]
							}
						}
					}
					rc[(cz*nc+cy)*nc+cx] = sum
				}
			}
		}
	}
	interp := func(uc []float64, nc int, uf []float64) {
		nf := nc * 2
		cmask := nc - 1
		cidx := func(x, y, z int) int { return ((z&cmask)*nc+(y&cmask))*nc + (x & cmask) }
		for fz := 0; fz < nf; fz++ {
			for fy := 0; fy < nf; fy++ {
				for fx := 0; fx < nf; fx++ {
					cx, cy, cz := fx/2, fy/2, fz/2
					var val float64
					for _, p := range [2]int{0, 1} {
						for _, q := range [2]int{0, 1} {
							for _, s := range [2]int{0, 1} {
								w := interpW(fx, p) * interpW(fy, q) * interpW(fz, s)
								if w != 0 {
									val += w * uc[cidx(cx+p, cy+q, cz+s)]
								}
							}
						}
					}
					uf[(fz*nf+fy)*nf+fx] += val
				}
			}
		}
	}

	var norms []float64
	for it := 0; it < iters; it++ {
		resid(ls[f].u, v, ls[f].r, ls[f].n)
		for l := f; l > 0; l-- {
			rprj3(ls[l].r, ls[l].n, ls[l-1].r)
		}
		for i := range ls[0].u {
			ls[0].u[i] = 0
		}
		psinv(ls[0].r, ls[0].u, ls[0].n)
		for l := 1; l < f; l++ {
			for i := range ls[l].u {
				ls[l].u[i] = 0
			}
			interp(ls[l-1].u, ls[l-1].n, ls[l].u)
			resid(ls[l].u, ls[l].r, ls[l].s, ls[l].n)
			psinv(ls[l].s, ls[l].u, ls[l].n)
		}
		interp(ls[f-1].u, ls[f-1].n, ls[f].u)
		resid(ls[f].u, v, ls[f].r, ls[f].n)
		psinv(ls[f].r, ls[f].u, ls[f].n)

		var sum float64
		for _, x := range ls[f].r {
			sum += x * x
		}
		norms = append(norms, math.Sqrt(sum/float64(n*n*n)))
	}
	copy(u, ls[f].u)
	return norms
}

// MGMakeRHS fills v with the NAS-style +1/-1 point charges at
// deterministic pseudo-random positions.
func MGMakeRHS(v []float64, n int, seed uint64) {
	for i := range v {
		v[i] = 0
	}
	// 10 positive and 10 negative unit charges, like NAS zran3's extremes.
	state := seed
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	for k := 0; k < 10; k++ {
		i := int(next()) % len(v)
		v[i] = -1
		j := int(next()) % len(v)
		v[j] = +1
	}
}
