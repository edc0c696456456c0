package kernels

import (
	"math"

	"gpuvirt/internal/cuda"
)

// NAS EP (Embarrassingly Parallel) generates 2^M pairs of uniform
// pseudo-random numbers with the NAS linear congruential generator
// (a = 5^13, modulo 2^46), converts accepted pairs to independent
// Gaussians with the Marsaglia polar method, and tallies them by the
// annulus l = floor(max(|X|,|Y|)). The paper runs class B (M = 30) with a
// 4-block grid.

// EP generator constants from the NPB specification.
const (
	epA    = 1220703125 // 5^13
	epSeed = 271828183
	epMod  = 1 << 46
	epMask = epMod - 1
	// EPBins is the number of annulus counters (NAS uses 10).
	EPBins = 10
)

// epMul multiplies two LCG values modulo 2^46. Native uint64
// multiplication wraps modulo 2^64, and 2^46 divides 2^64, so the low 46
// bits of the wrapped product are exact — no 23-bit splitting (the NAS
// Fortran vranlc scheme, needed there for float arithmetic) is required.
func epMul(a, b uint64) uint64 {
	return (a * b) & epMask
}

// epPow returns a^n mod 2^46 by binary exponentiation; it implements the
// LCG skip-ahead that lets each thread jump to its own subsequence.
func epPow(a uint64, n uint64) uint64 {
	r := uint64(1)
	base := a & epMask
	for n > 0 {
		if n&1 == 1 {
			r = epMul(r, base)
		}
		base = epMul(base, base)
		n >>= 1
	}
	return r
}

// epRand is the NAS LCG positioned at an arbitrary offset.
type epRand struct{ x uint64 }

// newEPRand returns the generator positioned so its first output is
// random number index `offset` of the canonical EP stream.
func newEPRand(offset uint64) epRand {
	return epRand{x: epMul(epSeed, epPow(epA, offset))}
}

// next returns the next uniform in (0,1).
func (r *epRand) next() float64 {
	r.x = epMul(r.x, epA)
	return float64(r.x) / float64(epMod)
}

// EPResult is the EP benchmark tally.
type EPResult struct {
	Sx, Sy float64
	Q      [EPBins]int64
}

// Add accumulates another tally into r.
func (r *EPResult) Add(o EPResult) {
	r.Sx += o.Sx
	r.Sy += o.Sy
	for i := range r.Q {
		r.Q[i] += o.Q[i]
	}
}

// epChunk runs the EP tally for pairs [lo, hi) of the canonical stream.
func epChunk(lo, hi uint64) EPResult {
	var res EPResult
	rng := newEPRand(2 * lo)
	for i := lo; i < hi; i++ {
		x := 2*rng.next() - 1
		y := 2*rng.next() - 1
		t := x*x + y*y
		if t > 1 || t == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(t) / t)
		gx, gy := x*f, y*f
		res.Sx += gx
		res.Sy += gy
		l := int(math.Max(math.Abs(gx), math.Abs(gy)))
		if l >= EPBins {
			l = EPBins - 1
		}
		res.Q[l]++
	}
	return res
}

// EPHost runs the whole benchmark sequentially (the host reference).
func EPHost(m int) EPResult {
	return epChunk(0, uint64(1)<<uint(m))
}

// EPThreadsPerBlock is the per-block thread count of the GPU version; the
// paper's grid size of 4 with class B means each thread processes ~2^21
// pairs.
const EPThreadsPerBlock = 128

// NewEP builds the EP kernel for 2^m pairs on a gridBlocks-block grid.
// out points to device memory holding one EPResult-sized partial tally
// per block, laid out as [Sx float64, Sy float64, Q [EPBins]float64...]
// stored as float64 for simplicity (12 float64 = 96 bytes per block).
//
// The cost model is calibrated against the paper's Table II: class B
// (M=30) on a 4-block grid computes for ~8951 ms on the C2070.
func NewEP(m int, gridBlocks int, out cuda.DevPtr) *cuda.Kernel {
	pairs := uint64(1) << uint(m)
	threads := uint64(gridBlocks * EPThreadsPerBlock)
	perThread := float64(pairs) / float64(threads)
	// ~223 SP-lane cycles per pair: RNG updates, polar rejection, the
	// occasional log/sqrt, and the tally.
	const cyclesPerPair = 223.0
	return &cuda.Kernel{
		Name:              "nas-ep",
		Grid:              cuda.Dim(gridBlocks),
		Block:             cuda.Dim(EPThreadsPerBlock),
		RegsPerThread:     24,
		SharedMemPerBlock: epResultFloats * 8,
		CyclesPerThread:   perThread * cyclesPerPair,
		Args:              []any{out, m},
		Func:              epBlock,
	}
}

// epResultFloats is the per-block tally size in float64s.
const epResultFloats = 2 + EPBins

func epBlock(bc *cuda.BlockCtx) {
	m := bc.Int(1)
	pairs := uint64(1) << uint(m)
	blocks := uint64(bc.GridDim.Count())
	threadsTotal := blocks * uint64(bc.BlockDim.Count())
	per := pairs / threadsTotal // callers size grids so this divides evenly
	out := cuda.Float64s(bc.Mem, bc.Ptr(0), bc.GridDim.Count()*epResultFloats)

	var tally EPResult
	blockIdx := uint64(bc.BlockIdx.Flat(bc.GridDim))
	for t := uint64(0); t < uint64(bc.BlockDim.Count()); t++ {
		tid := blockIdx*uint64(bc.BlockDim.Count()) + t
		lo := tid * per
		hi := lo + per
		if tid == threadsTotal-1 {
			hi = pairs // last thread absorbs the remainder
		}
		tally.Add(epChunk(lo, hi))
	}
	base := int(blockIdx) * epResultFloats
	out[base] = tally.Sx
	out[base+1] = tally.Sy
	for i, q := range tally.Q {
		out[base+2+i] = float64(q)
	}
}

// EPCollect reads the per-block tallies written by the kernel from host
// memory (after the D2H copy) and combines them.
func EPCollect(tallies []float64, gridBlocks int) EPResult {
	var res EPResult
	for b := 0; b < gridBlocks; b++ {
		base := b * epResultFloats
		res.Sx += tallies[base]
		res.Sy += tallies[base+1]
		for i := 0; i < EPBins; i++ {
			res.Q[i] += int64(tallies[base+2+i])
		}
	}
	return res
}
