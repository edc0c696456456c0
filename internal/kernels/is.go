package kernels

import (
	"gpuvirt/internal/cuda"
)

// NAS IS (Integer Sort) ranks N uniformly distributed integer keys in
// [0, Bmax) by bucket counting. The GPU version is the classic
// three-kernel pipeline every CUDA sort uses — per-block histograms, an
// exclusive scan of the global histogram, and a scatter pass that places
// each key at its rank — with kernel boundaries providing the global
// synchronization, exactly like the MG/CG ports.
//
// IS extends the paper's evaluation set with another member of the NPB
// family its reference [19] covers; class S is 2^16 keys over 2^11
// buckets.

// IS class parameters (NAS class S and W).
const (
	ISClassSKeys      = 1 << 16
	ISClassSBuckets   = 1 << 11
	ISClassWKeys      = 1 << 20
	ISClassWBuckets   = 1 << 16
	ISThreadsPerBlock = 256
)

// ISKeyGen fills keys with the NAS-style pseudo-random key sequence
// (uniform via the EP linear congruential generator, reduced to the
// bucket range).
func ISKeyGen(keys []int32, buckets int, seed uint64) {
	r := newEPRand(seed)
	for i := range keys {
		keys[i] = int32(r.next() * float64(buckets))
		if keys[i] >= int32(buckets) {
			keys[i] = int32(buckets) - 1
		}
	}
}

// ISHostSort is the host reference: counting sort returning the sorted
// keys.
func ISHostSort(keys []int32, buckets int) []int32 {
	counts := make([]int32, buckets)
	for _, k := range keys {
		counts[k]++
	}
	out := make([]int32, 0, len(keys))
	for b := int32(0); b < int32(buckets); b++ {
		for c := int32(0); c < counts[b]; c++ {
			out = append(out, b)
		}
	}
	return out
}

// ISBuffers is the device layout of one sort.
type ISBuffers struct {
	N          int
	Buckets    int
	GridBlocks int
	Keys       cuda.DevPtr // int32 x N (input)
	Sorted     cuda.DevPtr // int32 x N (output)
	BlockHist  cuda.DevPtr // int32 x GridBlocks x Buckets
	GlobalOff  cuda.DevPtr // int32 x (Buckets+1), exclusive prefix sums
}

// isStrip returns the key range a block owns.
func isStrip(bc *cuda.BlockCtx, n int) (lo, hi int) {
	blocks := bc.GridDim.Count()
	b := bc.BlockIdx.Flat(bc.GridDim)
	return b * n / blocks, (b + 1) * n / blocks
}

// NewISHistogram builds the per-block histogram kernel.
func NewISHistogram(b ISBuffers) *cuda.Kernel {
	return &cuda.Kernel{
		Name:              "is-histogram",
		Grid:              cuda.Dim(b.GridBlocks),
		Block:             cuda.Dim(ISThreadsPerBlock),
		RegsPerThread:     14,
		SharedMemPerBlock: min(b.Buckets, 12*1024/4) * 4,
		CyclesPerThread:   float64(b.N)/float64(b.GridBlocks*ISThreadsPerBlock)*12 + float64(b.Buckets)/ISThreadsPerBlock*4,
		Args:              []any{b},
		Func: func(bc *cuda.BlockCtx) {
			b := bc.Arg(0).(ISBuffers)
			keys := cuda.Int32s(bc.Mem, b.Keys, b.N)
			hist := cuda.Int32s(bc.Mem, b.BlockHist, b.GridBlocks*b.Buckets)
			blk := bc.BlockIdx.Flat(bc.GridDim)
			base := blk * b.Buckets
			for i := 0; i < b.Buckets; i++ {
				hist[base+i] = 0
			}
			lo, hi := isStrip(bc, b.N)
			for i := lo; i < hi; i++ {
				hist[base+int(keys[i])]++
			}
		},
	}
}

// NewISScan builds the single-block kernel that reduces the per-block
// histograms into global exclusive bucket offsets and rebases each
// block's histogram to its scatter offsets.
func NewISScan(b ISBuffers) *cuda.Kernel {
	return &cuda.Kernel{
		Name:            "is-scan",
		Grid:            cuda.Dim(1),
		Block:           cuda.Dim(ISThreadsPerBlock),
		RegsPerThread:   12,
		CyclesPerThread: float64(b.Buckets*b.GridBlocks) / ISThreadsPerBlock * 6,
		SerialOnly:      true, // scans every block's histogram in one pass
		Args:            []any{b},
		Func: func(bc *cuda.BlockCtx) {
			b := bc.Arg(0).(ISBuffers)
			hist := cuda.Int32s(bc.Mem, b.BlockHist, b.GridBlocks*b.Buckets)
			off := cuda.Int32s(bc.Mem, b.GlobalOff, b.Buckets+1)
			// Global bucket counts.
			var total int32
			for bu := 0; bu < b.Buckets; bu++ {
				off[bu] = total
				for blk := 0; blk < b.GridBlocks; blk++ {
					total += hist[blk*b.Buckets+bu]
				}
			}
			off[b.Buckets] = total
			// Rebase per-block histograms to running scatter offsets:
			// block blk writes bucket bu starting at off[bu] + sum of
			// earlier blocks' counts for bu.
			for bu := 0; bu < b.Buckets; bu++ {
				run := off[bu]
				for blk := 0; blk < b.GridBlocks; blk++ {
					c := hist[blk*b.Buckets+bu]
					hist[blk*b.Buckets+bu] = run
					run += c
				}
			}
		},
	}
}

// NewISScatter builds the rank-and-place kernel: each block walks its
// strip and writes keys to their final positions.
func NewISScatter(b ISBuffers) *cuda.Kernel {
	return &cuda.Kernel{
		Name:            "is-scatter",
		Grid:            cuda.Dim(b.GridBlocks),
		Block:           cuda.Dim(ISThreadsPerBlock),
		RegsPerThread:   16,
		CyclesPerThread: float64(b.N) / float64(b.GridBlocks*ISThreadsPerBlock) * 20,
		Args:            []any{b},
		Func: func(bc *cuda.BlockCtx) {
			b := bc.Arg(0).(ISBuffers)
			keys := cuda.Int32s(bc.Mem, b.Keys, b.N)
			sorted := cuda.Int32s(bc.Mem, b.Sorted, b.N)
			hist := cuda.Int32s(bc.Mem, b.BlockHist, b.GridBlocks*b.Buckets)
			blk := bc.BlockIdx.Flat(bc.GridDim)
			base := blk * b.Buckets
			lo, hi := isStrip(bc, b.N)
			for i := lo; i < hi; i++ {
				k := keys[i]
				sorted[hist[base+int(k)]] = k
				hist[base+int(k)]++
			}
		},
	}
}

// BuildISSort returns the kernel sequence of one full sort, repeated
// iterations times (NAS IS re-ranks the keys every iteration).
func BuildISSort(b ISBuffers, iterations int) []*cuda.Kernel {
	var ks []*cuda.Kernel
	for i := 0; i < iterations; i++ {
		ks = append(ks, NewISHistogram(b), NewISScan(b), NewISScatter(b))
	}
	return ks
}
