package kernels

import (
	"math"
	"math/cmplx"
	"sort"
	"testing"
	"testing/quick"

	"gpuvirt/internal/cuda"
)

// --- NAS IS ---

func isSetup(mem *testMem, n, buckets, gridBlocks int, seed uint64) (ISBuffers, []int32) {
	keys := make([]int32, n)
	ISKeyGen(keys, buckets, seed)
	b := ISBuffers{
		N:          n,
		Buckets:    buckets,
		GridBlocks: gridBlocks,
		Keys:       mem.putI32(keys),
		Sorted:     mem.alloc(int64(4 * n)),
		BlockHist:  mem.alloc(int64(4 * gridBlocks * buckets)),
		GlobalOff:  mem.alloc(int64(4 * (buckets + 1))),
	}
	return b, keys
}

func TestISSortsCorrectly(t *testing.T) {
	const n, buckets, grid = 10000, 128, 7
	mem := newTestMem(4 << 20)
	b, keys := isSetup(mem, n, buckets, grid, 42)
	runKernels(t, mem, BuildISSort(b, 1)...)
	got := cuda.Int32s(mem, b.Sorted, n)
	want := ISHostSort(keys, buckets)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestISGlobalOffsetsAreExclusivePrefixSums(t *testing.T) {
	const n, buckets, grid = 4096, 64, 4
	mem := newTestMem(4 << 20)
	b, keys := isSetup(mem, n, buckets, grid, 7)
	runKernels(t, mem, NewISHistogram(b), NewISScan(b))
	off := cuda.Int32s(mem, b.GlobalOff, buckets+1)
	counts := make([]int32, buckets)
	for _, k := range keys {
		counts[k]++
	}
	var run int32
	for bu := 0; bu < buckets; bu++ {
		if off[bu] != run {
			t.Fatalf("off[%d] = %d, want %d", bu, off[bu], run)
		}
		run += counts[bu]
	}
	if off[buckets] != int32(n) {
		t.Fatalf("off[end] = %d, want %d", off[buckets], n)
	}
}

func TestISRepeatedIterationsIdempotent(t *testing.T) {
	const n, buckets, grid = 2048, 32, 3
	mem := newTestMem(4 << 20)
	b, keys := isSetup(mem, n, buckets, grid, 3)
	runKernels(t, mem, BuildISSort(b, 3)...)
	got := cuda.Int32s(mem, b.Sorted, n)
	want := ISHostSort(keys, buckets)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after 3 iterations: sorted[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// Property: the GPU sort output is sorted and a permutation of the input
// for arbitrary key sets and launch grids.
func TestQuickISSortIsPermutation(t *testing.T) {
	f := func(seed uint64, gridRaw uint8) bool {
		const n, buckets = 3000, 61 // non-power-of-two bucket count
		grid := int(gridRaw%7) + 1
		mem := newTestMem(4 << 20)
		b, keys := isSetup(mem, n, buckets, grid, seed)
		for _, k := range BuildISSort(b, 1) {
			if err := k.RunFunctional(mem); err != nil {
				return false
			}
		}
		got := cuda.Int32s(mem, b.Sorted, n)
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			return false
		}
		var inCount, outCount [buckets]int32
		for i := 0; i < n; i++ {
			inCount[keys[i]]++
			outCount[got[i]]++
		}
		return inCount == outCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestISKeyGenInRange(t *testing.T) {
	keys := make([]int32, 10000)
	ISKeyGen(keys, 1<<11, 1)
	seen := make(map[int32]bool)
	for _, k := range keys {
		if k < 0 || k >= 1<<11 {
			t.Fatalf("key %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) < 1000 {
		t.Fatalf("only %d distinct keys in 10000 draws", len(seen))
	}
}

// --- NAS FT ---

func TestFTLineMatchesNaiveDFT(t *testing.T) {
	const n = 16
	v := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		v[2*i] = math.Sin(float64(i)*0.7) + 0.3
		v[2*i+1] = math.Cos(float64(i) * 1.3)
	}
	in := make([]complex128, n)
	for i := range in {
		in[i] = complex(v[2*i], v[2*i+1])
	}
	ftLine(v, 0, 1, n, -1)
	for k := 0; k < n; k++ {
		var want complex128
		for j := 0; j < n; j++ {
			want += in[j] * cmplx.Exp(complex(0, -2*math.Pi*float64(k*j)/float64(n)))
		}
		got := complex(v[2*k], v[2*k+1])
		if cmplx.Abs(got-want) > 1e-9 {
			t.Fatalf("X[%d] = %v, want %v", k, got, want)
		}
	}
}

func TestFTLineStrided(t *testing.T) {
	// A strided line inside a larger array transforms identically to a
	// contiguous one.
	const n = 8
	const stride = 5
	flat := make([]float64, 2*n)
	strided := make([]float64, 2*n*stride)
	for i := 0; i < n; i++ {
		re, im := float64(i)*0.25, float64(n-i)*0.5
		flat[2*i], flat[2*i+1] = re, im
		strided[2*(i*stride)], strided[2*(i*stride)+1] = re, im
	}
	ftLine(flat, 0, 1, n, -1)
	ftLine(strided, 0, stride, n, -1)
	for i := 0; i < n; i++ {
		if math.Abs(flat[2*i]-strided[2*(i*stride)]) > 1e-12 ||
			math.Abs(flat[2*i+1]-strided[2*(i*stride)+1]) > 1e-12 {
			t.Fatalf("strided transform diverges at %d", i)
		}
	}
}

func TestFTForwardInverseIdentity(t *testing.T) {
	const nx, ny, nz = 8, 4, 16
	n := nx * ny * nz
	data := make([]float64, 2*n)
	FTMakeInput(data, 99)
	orig := append([]float64(nil), data...)
	for dim := 0; dim < 3; dim++ {
		lines, length, baseOf, stride := ftDims(nx, ny, nz, dim)
		for l := 0; l < lines; l++ {
			ftLine(data, baseOf(l), stride, length, -1)
		}
	}
	for dim := 0; dim < 3; dim++ {
		lines, length, baseOf, stride := ftDims(nx, ny, nz, dim)
		for l := 0; l < lines; l++ {
			ftLine(data, baseOf(l), stride, length, +1)
		}
	}
	scale := 1.0 / float64(n)
	for i := range data {
		if math.Abs(data[i]*scale-orig[i]) > 1e-10 {
			t.Fatalf("round trip diverges at %d: %g vs %g", i, data[i]*scale, orig[i])
		}
	}
}

func TestFTKernelsMatchHostReference(t *testing.T) {
	const edge, iters, grid = 16, 3, 6
	n := edge * edge * edge
	mem := newTestMem(64 << 20)
	data := make([]float64, 2*n)
	FTMakeInput(data, 20110711)
	hostData := append([]float64(nil), data...)

	b := FTBuffers{
		NX: edge, NY: edge, NZ: edge,
		GridBlocks: grid,
		Freq:       mem.putF64(data),
		Work:       mem.alloc(int64(16 * n)),
		Checksums:  mem.alloc(int64(16 * iters)),
	}
	runKernels(t, mem, BuildFTBenchmark(b, iters)...)
	got := cuda.Float64s(mem, b.Checksums, 2*iters)
	want := FTHostReference(hostData, edge, edge, edge, iters)
	for i := range want {
		if !cuda.AlmostEqual(got[i], want[i], 1e-9) {
			t.Fatalf("checksum[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	// Checksums must differ across iterations (the field evolves).
	if got[0] == got[2] && got[1] == got[3] {
		t.Fatal("checksums identical across iterations")
	}
}

func TestFTEvolveFactorProperties(t *testing.T) {
	// DC mode is unchanged; all factors in (0, 1]; symmetric in +/-k.
	if f := ftEvolveFactor(0, 0, 0, 8, 8, 8); f != 1 {
		t.Fatalf("DC factor = %g", f)
	}
	for x := 0; x < 8; x++ {
		f := ftEvolveFactor(x, 3, 5, 8, 8, 8)
		if f <= 0 || f > 1 {
			t.Fatalf("factor(%d) = %g out of (0,1]", x, f)
		}
	}
	if ftEvolveFactor(1, 0, 0, 8, 8, 8) != ftEvolveFactor(7, 0, 0, 8, 8, 8) {
		t.Fatal("factors not symmetric about Nyquist")
	}
}
