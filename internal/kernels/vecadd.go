// Package kernels implements the GPU kernels used by the paper's
// evaluation: the two micro-benchmarks (large vector addition and the NAS
// EP kernel) and the five application benchmarks of Table IV (MM, NAS MG,
// Black-Scholes, NAS CG, electrostatics). Every kernel carries both a
// functional body — it really computes its result, validated against host
// references in the tests — and a calibrated cost model for the timing
// engine.
//
// Write-disjointness audit (cuda.Executor contract): every kernel here
// either writes a strip, tile or slab owned exclusively by one block
// (vecadd, mm, blackscholes, electrostatics, ep, the CG vector steps and
// per-block partial dots, is-histogram, is-scatter, the FT passes and the
// MG stencils — which write an array they do not read within the same
// launch) and is safe under parallel block execution, or performs a
// cross-block reduction on a single-block grid and is tagged SerialOnly
// (cg reduce steps, cg-outer-reduce, is-scan, ft-checksum). The
// determinism test in exec_determinism_test.go holds every functional
// kernel to bit-identical serial/parallel results.
package kernels

import "gpuvirt/internal/cuda"

// VecAddThreadsPerBlock is the launch shape of the vector-add kernel; the
// paper's 50M-element instance uses a 50K-block grid, i.e. ~1K threads
// per block.
const VecAddThreadsPerBlock = 1024

// NewVecAdd builds the c = a + b single-precision kernel over n elements.
// a, b and c are device pointers to n float32 each.
//
// The cost model is calibrated so the paper's 50M-element instance takes
// ~0.04 ms (Table II Tcomp): the kernel is completely I/O-bound and its
// on-GPU time is negligible next to its PCIe transfers, which is the
// property the paper's "I/O-intensive" classification relies on.
func NewVecAdd(a, b, c cuda.DevPtr, n int) *cuda.Kernel {
	grid := (n + VecAddThreadsPerBlock - 1) / VecAddThreadsPerBlock
	return &cuda.Kernel{
		Name:            "vecadd",
		Grid:            cuda.Dim(grid),
		Block:           cuda.Dim(VecAddThreadsPerBlock),
		RegsPerThread:   8,
		CyclesPerThread: 0.4,
		Args:            []any{a, b, c, n},
		Func:            vecAddBlock,
	}
}

// vecAddBlock adds its block's strip. The three views cover the strip
// only and are re-sliced to one length, so the loops carry no per-element
// bounds check and no i < n branch. Four elements a trip is not for the
// arithmetic — the kernel is memory-bound either way — but for the front
// end: a one-element loop is a 23-byte body refetched every element, and
// it ran 2^20 elements in 0.59 ms or 0.72 ms depending on whether the
// linker left it astride a 64-byte line (the bulk-shm "layout wobble");
// the four-wide body takes 0.57 ms in either position.
func vecAddBlock(bc *cuda.BlockCtx) {
	lo, hi := bc.Strip(bc.Int(3))
	if lo == hi {
		return
	}
	c := bc.Float32Strip(2, lo, hi)
	a := bc.Float32Strip(0, lo, hi)[:len(c)]
	b := bc.Float32Strip(1, lo, hi)[:len(c)]
	i := 0
	for ; i+4 <= len(c); i += 4 {
		c4, a4, b4 := c[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		c4[0] = a4[0] + b4[0]
		c4[1] = a4[1] + b4[1]
		c4[2] = a4[2] + b4[2]
		c4[3] = a4[3] + b4[3]
	}
	for ; i < len(c); i++ {
		c[i] = a[i] + b[i]
	}
}
