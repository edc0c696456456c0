package workloads

import (
	"fmt"
	"sort"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/kernels"
	"gpuvirt/internal/task"
)

// IS and FT extend the evaluation set with two more NPB kernels from the
// family the paper's reference [19] ports to GPUs. They have no paper
// figure to match; their WorkScale factors are set the same way as the
// Table IV applications' (latency-bound 2010-era ports vs the
// throughput model), landing class-S per-task times at a scale
// comparable to the paper's applications.

// IS is the NAS integer sort: nit ranking iterations of n keys over
// `buckets` buckets on a gridBlocks-block launch.
func IS(n, buckets, nit, gridBlocks int) Workload {
	w := Workload{
		Name:        "IS",
		ProblemSize: fmt.Sprintf("S(N=2^%d, Bmax=2^%d, Nit=%d)", log2(n), log2(buckets), nit),
		GridSize:    gridBlocks,
		Class:       IOIntensive,
		WorkScale:   200, // scattered-gather ranking is latency-bound
	}
	w.Spec = func(rank int) *task.Spec {
		return &task.Spec{
			Name:     w.Name,
			InBytes:  int64(4 * n),
			OutBytes: int64(4 * n),
			Build: func(b *task.Buffers) ([]*cuda.Kernel, error) {
				bufs := kernels.ISBuffers{
					N: n, Buckets: buckets, GridBlocks: gridBlocks,
					Keys:   b.In,
					Sorted: b.Out,
				}
				var err error
				if bufs.BlockHist, err = b.NewScratch(int64(4 * gridBlocks * buckets)); err != nil {
					return nil, err
				}
				if bufs.GlobalOff, err = b.NewScratch(int64(4 * (buckets + 1))); err != nil {
					return nil, err
				}
				return scaled(kernels.BuildISSort(bufs, nit), w.WorkScale), nil
			},
		}
	}
	w.Fill = func(rank int, buf []byte) {
		keys := cuda.Int32s(sliceMem(buf), 0, n)
		kernels.ISKeyGen(keys, buckets, uint64(rank)+1)
	}
	w.Check = func(rank int, out []byte) error {
		keys := make([]int32, n)
		kernels.ISKeyGen(keys, buckets, uint64(rank)+1)
		want := kernels.ISHostSort(keys, buckets)
		got := cuda.Int32s(sliceMem(out), 0, n)
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			return fmt.Errorf("IS rank %d: output not sorted", rank)
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("IS rank %d: sorted[%d] = %d, want %d", rank, i, got[i], want[i])
			}
		}
		return nil
	}
	return w
}

// ClassSIS is the NAS class-S instance: 2^16 keys, 2^11 buckets, 10
// ranking iterations.
func ClassSIS() Workload { return IS(kernels.ISClassSKeys, kernels.ISClassSBuckets, 10, 64) }

// FT is the NAS 3-D FFT PDE solver: a cubic edge^3 grid, nit evolution
// iterations, each a frequency-space multiply plus an inverse 3-D FFT
// and a checksum.
func FT(edge, nit, gridBlocks int) Workload {
	w := Workload{
		Name:        "FT",
		ProblemSize: fmt.Sprintf("S(%dx%dx%d, Nit=%d)", edge, edge, edge, nit),
		GridSize:    gridBlocks,
		Class:       CompIntensive,
		WorkScale:   100, // strided butterfly passes run far below peak
	}
	points := edge * edge * edge
	w.Spec = func(rank int) *task.Spec {
		return &task.Spec{
			Name:     w.Name,
			InBytes:  int64(16 * points), // interleaved complex input
			OutBytes: int64(16 * nit),    // per-iteration checksums
			WritesIn: true,               // the FFT runs in place
			Build: func(b *task.Buffers) ([]*cuda.Kernel, error) {
				bufs := kernels.FTBuffers{
					NX: edge, NY: edge, NZ: edge,
					GridBlocks: gridBlocks,
					Freq:       b.In, // transformed in place
					Checksums:  b.Out,
				}
				var err error
				if bufs.Work, err = b.NewScratch(int64(16 * points)); err != nil {
					return nil, err
				}
				return scaled(kernels.BuildFTBenchmark(bufs, nit), w.WorkScale), nil
			},
		}
	}
	w.Fill = func(rank int, buf []byte) {
		kernels.FTMakeInput(f64view(buf, 0, 2*points), uint64(rank)+1)
	}
	w.Check = func(rank int, out []byte) error {
		data := make([]float64, 2*points)
		kernels.FTMakeInput(data, uint64(rank)+1)
		want := kernels.FTHostReference(data, edge, edge, edge, nit)
		got := f64view(out, 0, 2*nit)
		for i := range want {
			if !cuda.AlmostEqual(got[i], want[i], 1e-9) {
				return fmt.Errorf("FT rank %d: checksum[%d] = %g, want %g", rank, i, got[i], want[i])
			}
		}
		return nil
	}
	return w
}

// ClassSFT is the NAS class-S instance: 64^3, 6 iterations.
func ClassSFT() Workload { return FT(kernels.FTClassSEdge, kernels.FTClassSIters, 64) }

func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
