package kernels

import "gpuvirt/internal/cuda"

// MM is the 2Kx2K single-precision dense matrix multiplication benchmark
// (paper Table IV: problem size 2048x2048, grid 4096). The GPU version is
// the classic shared-memory tiled SGEMM with 16x16 tiles: a 2048x2048
// product launches (2048/16)^2 = 16384 blocks of 256 threads; the paper's
// grid size of 4096 corresponds to its 1024x1024-output sub-grid variant,
// so the grid is configurable.

// MMTile is the default tile edge (threads per block = MMTile^2 = 256).
// The paper's Table IV grid of 4096 blocks for a 2048^2 product
// corresponds to 32x32 tiles; NewMMTiled accepts either.
const MMTile = 16

// NewMMTiled builds the tiled SGEMM with a chosen tile edge (tile^2
// threads per block, at most 1024).
//
// Cost model: each thread computes one output element: n multiply-adds
// = n FMA lane-cycles, derated by an efficiency factor for shared-memory
// staging (real SGEMM on Fermi reaches ~60% of peak).
func NewMMTiled(a, b, c cuda.DevPtr, n, tile int) *cuda.Kernel {
	if tile < 1 || tile*tile > 1024 {
		panic("kernels: MM tile must satisfy 1 <= tile^2 <= 1024")
	}
	if n%tile != 0 {
		panic("kernels: MM size must be a multiple of the tile edge")
	}
	t := n / tile
	const efficiency = 0.60
	return &cuda.Kernel{
		Name:              "mm",
		Grid:              cuda.Dim(t, t),
		Block:             cuda.Dim(tile, tile),
		RegsPerThread:     20,
		SharedMemPerBlock: 2 * tile * tile * 4, // A-tile + B-tile
		CyclesPerThread:   float64(n) / efficiency,
		MemBytesPerThread: float64(2*n*4) / float64(tile), // tiled reuse
		Args:              []any{a, b, c, n, tile},
		Func:              mmBlock,
	}
}

func mmBlock(bc *cuda.BlockCtx) {
	n := bc.Int(3)
	tile := bc.Int(4)
	av := cuda.Float32s(bc.Mem, bc.Ptr(0), n*n)
	bv := cuda.Float32s(bc.Mem, bc.Ptr(1), n*n)
	cv := cuda.Float32s(bc.Mem, bc.Ptr(2), n*n)
	row0 := bc.BlockIdx.Y * tile
	col0 := bc.BlockIdx.X * tile
	// Tile-accumulation order matches the shared-memory version: for each
	// k-tile, accumulate its partial products, so float rounding matches
	// a real tiled kernel rather than the naive loop.
	acc := make([]float32, tile*tile)
	for k0 := 0; k0 < n; k0 += tile {
		for i := 0; i < tile; i++ {
			for j := 0; j < tile; j++ {
				var s float32
				for k := k0; k < k0+tile; k++ {
					s += av[(row0+i)*n+k] * bv[k*n+col0+j]
				}
				acc[i*tile+j] += s
			}
		}
	}
	for i := 0; i < tile; i++ {
		for j := 0; j < tile; j++ {
			cv[(row0+i)*n+col0+j] = acc[i*tile+j]
		}
	}
}

// MMHost computes the reference product C = A x B (naive order).
func MMHost(c, a, b []float32, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += float64(a[i*n+k]) * float64(b[k*n+j])
			}
			c[i*n+j] = float32(s)
		}
	}
}
