package kernels

import (
	"math"

	"gpuvirt/internal/cuda"
)

// Electrostatics is the fast molecular electrostatics benchmark from VMD
// (paper Table IV: 100K atoms, Nit = 25, grid 288): direct Coulomb
// summation of atom charges onto a regular 2-D lattice slice, the
// cionize/cuenergy kernel of Stone et al. Each thread owns one lattice
// point and accumulates q_i / r_i over all atoms; the iteration count
// re-evaluates the slice (successive z-planes).

// ESThreadsPerBlock is the lattice points per block (the CUDA kernel uses
// 16x8 thread blocks; 128 threads).
const ESThreadsPerBlock = 128

// ESParams describe the lattice slice.
type ESParams struct {
	GridX, GridY int     // lattice extent (points)
	Spacing      float32 // lattice spacing (Angstrom)
	Z            float32 // slice plane height
}

// NewElectrostatics builds the direct Coulomb summation kernel.
// atoms points to natoms packed float32 quads (x, y, z, q); out points to
// GridX*GridY float32 potentials. nit slices are evaluated, each shifting
// the plane by one spacing in z (results accumulate into out, which each
// launch zeroes first).
//
// Cost model: 9 lane-cycles per atom per lattice point (3 subs, 3 mults,
// 2 adds, rsqrt) as in Stone et al.'s analysis.
func NewElectrostatics(atoms, out cuda.DevPtr, natoms, nit, gridBlocks int, p ESParams) *cuda.Kernel {
	points := p.GridX * p.GridY
	threads := gridBlocks * ESThreadsPerBlock
	perThread := float64(points) / float64(threads)
	const cyclesPerAtom = 9.0
	return &cuda.Kernel{
		Name:              "electrostatics",
		Grid:              cuda.Dim(gridBlocks),
		Block:             cuda.Dim(ESThreadsPerBlock),
		RegsPerThread:     20,
		SharedMemPerBlock: 4 * 1024, // staged atom tile
		CyclesPerThread:   perThread * cyclesPerAtom * float64(natoms) * float64(nit),
		Args:              []any{atoms, out, natoms, nit, p},
		Func:              esBlock,
	}
}

func esBlock(bc *cuda.BlockCtx) {
	natoms := bc.Int(2)
	nit := bc.Int(3)
	p := bc.Arg(4).(ESParams)
	atoms := cuda.Float32s(bc.Mem, bc.Ptr(0), natoms*4)
	points := p.GridX * p.GridY
	out := cuda.Float32s(bc.Mem, bc.Ptr(1), points)
	stride := bc.GridDim.Count() * bc.BlockDim.Count()
	base := bc.GlobalBase()
	// The block's points start from zero: out is device memory that holds
	// the previous launch's potentials.
	for t := 0; t < bc.BlockDim.X; t++ {
		for i := base + t; i < points; i += stride {
			out[i] = 0
		}
	}
	for it := 0; it < nit; it++ {
		z := p.Z + float32(it)*p.Spacing
		for t := 0; t < bc.BlockDim.X; t++ {
			for i := base + t; i < points; i += stride {
				gx := float32(i%p.GridX) * p.Spacing
				gy := float32(i/p.GridX) * p.Spacing
				out[i] += esPoint(atoms, natoms, gx, gy, z)
			}
		}
	}
}

// esPoint sums q/r over all atoms for one lattice point.
func esPoint(atoms []float32, natoms int, gx, gy, gz float32) float32 {
	var sum float64
	for a := 0; a < natoms; a++ {
		dx := float64(atoms[4*a] - gx)
		dy := float64(atoms[4*a+1] - gy)
		dz := float64(atoms[4*a+2] - gz)
		r2 := dx*dx + dy*dy + dz*dz
		if r2 < 1e-12 {
			continue // atom exactly on the lattice point
		}
		sum += float64(atoms[4*a+3]) / math.Sqrt(r2)
	}
	return float32(sum)
}

// ElectrostaticsHost evaluates nit slices on the host (reference).
func ElectrostaticsHost(out []float32, atoms []float32, natoms, nit int, p ESParams) {
	for it := 0; it < nit; it++ {
		z := p.Z + float32(it)*p.Spacing
		for i := 0; i < p.GridX*p.GridY; i++ {
			gx := float32(i%p.GridX) * p.Spacing
			gy := float32(i/p.GridX) * p.Spacing
			out[i] += esPoint(atoms, natoms, gx, gy, z)
		}
	}
}
