package kernels

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"gpuvirt/internal/cuda"
)

// testMem is a bump-allocated fake device memory for functional kernel
// tests (no simulator involved).
type testMem struct {
	data []byte
	next int64
}

func newTestMem(n int64) *testMem { return &testMem{data: make([]byte, n), next: 256} }

func (m *testMem) Bytes(p cuda.DevPtr, n int64) []byte {
	return m.data[p : int64(p)+n : int64(p)+n]
}

func (m *testMem) alloc(n int64) cuda.DevPtr {
	n = (n + 255) / 256 * 256
	p := cuda.DevPtr(m.next)
	m.next += n
	if m.next > int64(len(m.data)) {
		panic("testMem exhausted")
	}
	return p
}

func (m *testMem) putF32(v []float32) cuda.DevPtr {
	p := m.alloc(int64(len(v)) * 4)
	copy(cuda.Float32s(m, p, len(v)), v)
	return p
}

func (m *testMem) putF64(v []float64) cuda.DevPtr {
	p := m.alloc(int64(len(v)) * 8)
	copy(cuda.Float64s(m, p, len(v)), v)
	return p
}

func (m *testMem) putI32(v []int32) cuda.DevPtr {
	p := m.alloc(int64(len(v)) * 4)
	copy(cuda.Int32s(m, p, len(v)), v)
	return p
}

func runKernels(t *testing.T, mem cuda.Memory, ks ...*cuda.Kernel) {
	t.Helper()
	for _, k := range ks {
		if err := k.RunFunctional(mem); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
	}
}

// --- VectorAdd ---

func TestVecAddMatchesHost(t *testing.T) {
	const n = 5000 // not a multiple of the block size: tests the tail guard
	mem := newTestMem(1 << 20)
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = float32(i) * 0.5
		b[i] = float32(n - i)
	}
	pa, pb := mem.putF32(a), mem.putF32(b)
	pc := mem.alloc(n * 4)
	runKernels(t, mem, NewVecAdd(pa, pb, pc, n))
	want := make([]float32, n)
	VecAddHost(want, a, b)
	got := cuda.Float32s(mem, pc, n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("c[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestVecAddStripTails: each block adds exactly its strip [base,
// min(base+BlockDim.X, n)). Around every block-size boundary the output is
// the host reference bit for bit under 1 and 4 workers, and an output
// allocation one block longer than n keeps its fill past element n — the
// last strip is clipped to n, never rounded up to the block.
func TestVecAddStripTails(t *testing.T) {
	const fill = 0xA5
	for _, n := range []int{1, 1023, 1024, 1025, 1<<20 + 7} {
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(i%977) * 0.37
			b[i] = float32(n-i) / 3
		}
		want := make([]float32, n)
		VecAddHost(want, a, b)
		for _, workers := range []int{1, 4} {
			mem := newTestMem(3*int64(n+VecAddThreadsPerBlock)*4 + 1024)
			pa, pb := mem.putF32(a), mem.putF32(b)
			outBytes := int64(n+VecAddThreadsPerBlock) * 4
			pc := mem.alloc(outBytes)
			out := mem.Bytes(pc, outBytes)
			for i := range out {
				out[i] = fill
			}
			if err := cuda.NewExecutor(workers).Run(NewVecAdd(pa, pb, pc, n), mem); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out[:n*4], cuda.HostFloat32Bytes(want)) {
				t.Errorf("n=%d workers=%d: output differs from VecAddHost", n, workers)
			}
			for i, v := range out[n*4:] {
				if v != fill {
					t.Fatalf("n=%d workers=%d: byte %d past the last element was written", n, workers, i)
				}
			}
		}
	}
}

// --- NAS EP ---

func TestEPSkipAhead(t *testing.T) {
	// Jumping to offset k must equal stepping k times.
	seq := newEPRand(0)
	var vals []float64
	for i := 0; i < 100; i++ {
		vals = append(vals, seq.next())
	}
	for _, k := range []uint64{0, 1, 7, 50, 99} {
		r := newEPRand(k)
		if got := r.next(); got != vals[k] {
			t.Fatalf("skip-ahead to %d = %v, want %v", k, got, vals[k])
		}
	}
}

func TestEPUniformsInRange(t *testing.T) {
	r := newEPRand(0)
	for i := 0; i < 10000; i++ {
		v := r.next()
		if v <= 0 || v >= 1 {
			t.Fatalf("uniform %d = %v out of (0,1)", i, v)
		}
	}
}

func TestEPKernelMatchesHost(t *testing.T) {
	const m = 16 // 65536 pairs
	mem := newTestMem(1 << 20)
	out := mem.alloc(int64(4*epResultFloats) * 8)
	k := NewEP(m, 4, out)
	runKernels(t, mem, k)
	got := EPCollect(cuda.Float64s(mem, out, 4*epResultFloats), 4)
	want := EPHost(m)
	if math.Abs(got.Sx-want.Sx) > 1e-9 || math.Abs(got.Sy-want.Sy) > 1e-9 {
		t.Fatalf("sums (%g,%g), want (%g,%g)", got.Sx, got.Sy, want.Sx, want.Sy)
	}
	if got.Q != want.Q {
		t.Fatalf("annulus counts %v, want %v", got.Q, want.Q)
	}
}

func TestEPStatisticalSanity(t *testing.T) {
	res := EPHost(18)
	pairs := res.Pairs()
	total := int64(1) << 18
	// Polar-method acceptance is pi/4 ~ 78.5%.
	frac := float64(pairs) / float64(total)
	if frac < 0.77 || frac < 0 || frac > 0.80 {
		t.Fatalf("acceptance fraction %.4f, want ~0.785", frac)
	}
	// Counts decrease with annulus index (Gaussian tails).
	for i := 1; i < 5; i++ {
		if res.Q[i] >= res.Q[i-1] {
			t.Fatalf("annulus counts not decreasing: %v", res.Q)
		}
	}
	// Means are near zero: |Sx|/pairs small.
	if math.Abs(res.Sx)/float64(pairs) > 0.02 || math.Abs(res.Sy)/float64(pairs) > 0.02 {
		t.Fatalf("means too large: Sx=%g Sy=%g over %d pairs", res.Sx, res.Sy, pairs)
	}
}

func TestEPKernelUnevenDivision(t *testing.T) {
	// 2^10 pairs over 3 blocks x 128 threads: the last thread absorbs the
	// remainder; totals still match the host run.
	const m = 10
	mem := newTestMem(1 << 20)
	out := mem.alloc(int64(3*epResultFloats) * 8)
	runKernels(t, mem, NewEP(m, 3, out))
	got := EPCollect(cuda.Float64s(mem, out, 3*epResultFloats), 3)
	want := EPHost(m)
	if got.Pairs() != want.Pairs() || math.Abs(got.Sx-want.Sx) > 1e-9 {
		t.Fatalf("uneven division: got %v pairs, want %v", got.Pairs(), want.Pairs())
	}
}

// --- MM ---

func TestMMMatchesHost(t *testing.T) {
	const n = 64
	mem := newTestMem(1 << 20)
	a := make([]float32, n*n)
	b := make([]float32, n*n)
	for i := range a {
		a[i] = float32((i*7)%13) / 13
		b[i] = float32((i*5)%11) / 11
	}
	pa, pb := mem.putF32(a), mem.putF32(b)
	pc := mem.alloc(n * n * 4)
	runKernels(t, mem, NewMMTiled(pa, pb, pc, n, MMTile))
	want := make([]float32, n*n)
	MMHost(want, a, b, n)
	got := cuda.Float32s(mem, pc, n*n)
	for i := range want {
		if !cuda.AlmostEqual(float64(got[i]), float64(want[i]), 1e-4) {
			t.Fatalf("C[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestMMRejectsBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-tile-multiple size")
		}
	}()
	NewMMTiled(0, 0, 0, 100, MMTile)
}

// --- Black-Scholes ---

func TestBlackScholesMatchesHost(t *testing.T) {
	const n = 2000
	mem := newTestMem(1 << 20)
	s := make([]float32, n)
	x := make([]float32, n)
	tt := make([]float32, n)
	for i := range s {
		s[i] = 5 + float32(i%100)
		x[i] = 1 + float32(i%50)
		tt[i] = 0.25 + float32(i%40)/40*9.75
	}
	ps, px, pt := mem.putF32(s), mem.putF32(x), mem.putF32(tt)
	pc, pp := mem.alloc(n*4), mem.alloc(n*4)
	runKernels(t, mem, NewBlackScholes(ps, px, pt, pc, pp, n, 2, 4, DefaultBSParams()))
	wc := make([]float32, n)
	wp := make([]float32, n)
	BlackScholesHost(wc, wp, s, x, tt, DefaultBSParams())
	gc := cuda.Float32s(mem, pc, n)
	gp := cuda.Float32s(mem, pp, n)
	for i := range wc {
		if gc[i] != wc[i] || gp[i] != wp[i] {
			t.Fatalf("option %d: call/put (%g,%g), want (%g,%g)", i, gc[i], gp[i], wc[i], wp[i])
		}
	}
}

// Property: put-call parity C - P = S - X e^{-rT} holds for all inputs.
func TestQuickPutCallParity(t *testing.T) {
	p := DefaultBSParams()
	f := func(sRaw, xRaw, tRaw uint16) bool {
		s := 1 + float32(sRaw%10000)/100 // 1..101
		x := 1 + float32(xRaw%10000)/100 // 1..101
		tm := 0.1 + float32(tRaw%100)/10 // 0.1..10.1
		call, put := BlackScholesPrice(s, x, tm, p.Riskfree, p.Volatility)
		lhs := float64(call) - float64(put)
		rhs := float64(s) - float64(x)*math.Exp(-float64(p.Riskfree)*float64(tm))
		return math.Abs(lhs-rhs) < 1e-3*(1+math.Abs(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: option prices respect no-arbitrage bounds.
func TestQuickBSBounds(t *testing.T) {
	p := DefaultBSParams()
	f := func(sRaw, xRaw, tRaw uint16) bool {
		s := 1 + float32(sRaw%10000)/100
		x := 1 + float32(xRaw%10000)/100
		tm := 0.1 + float32(tRaw%100)/10
		call, put := BlackScholesPrice(s, x, tm, p.Riskfree, p.Volatility)
		if call < -1e-4 || put < -1e-4 {
			return false // prices are non-negative
		}
		if float64(call) > float64(s)*(1+1e-6) {
			return false // a call never exceeds the spot
		}
		disc := float64(x) * math.Exp(-float64(p.Riskfree)*float64(tm))
		return float64(put) <= disc*(1+1e-6) // a put never exceeds the discounted strike
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// --- Electrostatics ---

func TestElectrostaticsMatchesHost(t *testing.T) {
	const natoms = 200
	p := ESParams{GridX: 24, GridY: 16, Spacing: 0.5, Z: 1.0}
	atoms := make([]float32, natoms*4)
	for i := 0; i < natoms; i++ {
		atoms[4*i] = float32(i%17) * 0.7
		atoms[4*i+1] = float32(i%13) * 0.6
		atoms[4*i+2] = float32(i%7) * 0.4
		atoms[4*i+3] = float32(i%3) - 1 // charges -1, 0, +1
	}
	mem := newTestMem(1 << 20)
	pa := mem.putF32(atoms)
	points := p.GridX * p.GridY
	po := mem.alloc(int64(points) * 4)
	runKernels(t, mem, NewElectrostatics(pa, po, natoms, 3, 3, p))
	want := make([]float32, points)
	ElectrostaticsHost(want, atoms, natoms, 3, p)
	got := cuda.Float32s(mem, po, points)
	for i := range want {
		if !cuda.AlmostEqual(float64(got[i]), float64(want[i]), 1e-5) {
			t.Fatalf("potential[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// --- NAS MG ---

func TestMGKernelsMatchHostReference(t *testing.T) {
	const n, levels, iters = 16, 3, 3
	mem := newTestMem(64 << 20)
	st := &MGState{}
	edge := n
	lv := make([]MGLevel, levels)
	for l := levels - 1; l >= 0; l-- {
		sz := int64(edge*edge*edge) * 8
		lv[l] = MGLevel{N: edge, U: mem.alloc(sz), R: mem.alloc(sz), S: mem.alloc(sz)}
		edge /= 2
	}
	st.Levels = lv
	v := make([]float64, n*n*n)
	MGMakeRHS(v, n, 42)
	st.V = mem.putF64(v)
	st.NormP = mem.alloc(int64(mgGridBlocks(n)) * 8)

	// Zero the finest solution, then run iterations of the kernel build.
	runKernels(t, mem, NewMGZero(st.Finest().U, n))
	var norms []float64
	for it := 0; it < iters; it++ {
		runKernels(t, mem, BuildMGIteration(st)...)
		parts := cuda.Float64s(mem, st.NormP, mgGridBlocks(n))
		var sum float64
		for _, x := range parts {
			sum += x
		}
		norms = append(norms, math.Sqrt(sum/float64(n*n*n)))
	}

	uHost := make([]float64, n*n*n)
	wantNorms := MGHostIterate(uHost, v, n, levels, iters)
	for i := range norms {
		if !cuda.AlmostEqual(norms[i], wantNorms[i], 1e-10) {
			t.Fatalf("iteration %d: device norm %g, host norm %g", i, norms[i], wantNorms[i])
		}
	}
	// Multigrid must actually converge.
	if norms[iters-1] >= norms[0]*0.5 {
		t.Fatalf("MG not converging: norms %v", norms)
	}
	// Device solution equals host solution.
	got := cuda.Float64s(mem, st.Finest().U, n*n*n)
	for i := range uHost {
		if !cuda.AlmostEqual(got[i], uHost[i], 1e-10) {
			t.Fatalf("u[%d] = %g, want %g", i, got[i], uHost[i])
		}
	}
}

func TestMGRestrictionPreservesConstants(t *testing.T) {
	// Full weighting of a constant field is the same constant.
	const nf = 8
	mem := newTestMem(1 << 20)
	rf := make([]float64, nf*nf*nf)
	for i := range rf {
		rf[i] = 3.25
	}
	prf := mem.putF64(rf)
	nc := nf / 2
	prc := mem.alloc(int64(nc*nc*nc) * 8)
	runKernels(t, mem, NewMGRprj3(prf, nf, prc))
	for i, v := range cuda.Float64s(mem, prc, nc*nc*nc) {
		if !cuda.AlmostEqual(v, 3.25, 1e-12) {
			t.Fatalf("coarse[%d] = %g, want 3.25", i, v)
		}
	}
}

func TestMGInterpolationPreservesConstants(t *testing.T) {
	const nc = 4
	mem := newTestMem(1 << 20)
	uc := make([]float64, nc*nc*nc)
	for i := range uc {
		uc[i] = -1.5
	}
	puc := mem.putF64(uc)
	nf := nc * 2
	puf := mem.alloc(int64(nf*nf*nf) * 8)
	runKernels(t, mem, NewMGInterp(puc, nc, puf))
	for i, v := range cuda.Float64s(mem, puf, nf*nf*nf) {
		if !cuda.AlmostEqual(v, -1.5, 1e-12) {
			t.Fatalf("fine[%d] = %g, want -1.5", i, v)
		}
	}
}

// --- NAS CG ---

func TestCGMatrixIsSymmetricSPD(t *testing.T) {
	m := MakeCGMatrix(200, 5, 10, 7)
	// Symmetry: A[i][j] == A[j][i] for all stored entries.
	get := func(i, j int) float64 {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if int(m.Col[k]) == j {
				return m.Val[k]
			}
		}
		return 0
	}
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := int(m.Col[k])
			if get(j, i) != m.Val[k] {
				t.Fatalf("A[%d][%d]=%g but A[%d][%d]=%g", i, j, m.Val[k], j, i, get(j, i))
			}
		}
	}
	// Diagonal dominance (implies SPD for symmetric matrices).
	for i := 0; i < m.N; i++ {
		var diag, off float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if int(m.Col[k]) == i {
				diag = m.Val[k]
			} else {
				off += math.Abs(m.Val[k])
			}
		}
		if diag <= off {
			t.Fatalf("row %d not diagonally dominant: diag=%g off=%g", i, diag, off)
		}
	}
}

func TestCGHostSolveConverges(t *testing.T) {
	m := MakeCGMatrix(300, 6, 10, 11)
	x := make([]float64, m.N)
	for i := range x {
		x[i] = 1
	}
	_, r5 := CGHostSolve(m, x, 5)
	_, r25 := CGHostSolve(m, x, 25)
	if r25 >= r5 {
		t.Fatalf("CG residual did not decrease: %g -> %g", r5, r25)
	}
	if r25 > 1e-8*math.Sqrt(float64(m.N)) {
		t.Fatalf("CG residual after 25 steps too large: %g", r25)
	}
}

func TestCGKernelsMatchHostSolve(t *testing.T) {
	const n, gridBlocks, steps = 256, 8, 12
	m := MakeCGMatrix(n, 5, 10, 3)
	mem := newTestMem(64 << 20)
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 + float64(i%5)/7
	}
	b := CGBuffers{
		N:          n,
		GridBlocks: gridBlocks,
		RowPtr:     mem.putI32(m.RowPtr),
		Col:        mem.putI32(m.Col),
		Val:        mem.putF64(m.Val),
		X:          mem.putF64(x),
		Z:          mem.alloc(n * 8),
		R:          mem.alloc(n * 8),
		P:          mem.alloc(n * 8),
		Q:          mem.alloc(n * 8),
		Partial:    mem.alloc(gridBlocks * 8),
		Scalars:    mem.alloc(cgScalarCount * 8),
	}
	runKernels(t, mem, BuildCGSolve(b, m.NNZ(), steps)...)
	want, _ := CGHostSolve(m, x, steps)
	got := cuda.Float64s(mem, b.Z, n)
	for i := range want {
		if !cuda.AlmostEqual(got[i], want[i], 1e-9) {
			t.Fatalf("z[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestCGHostBenchmarkStable(t *testing.T) {
	m := MakeCGMatrix(200, 5, 10, 13)
	_, z1 := CGHostOuter(m, 5, CGInnerSteps, 10)
	_, z2 := CGHostOuter(m, 15, CGInnerSteps, 10)
	// The power iteration converges: later estimate close to earlier one.
	if math.Abs(z1-z2) > 0.05*math.Abs(z2) {
		t.Fatalf("zeta not converging: %g vs %g", z1, z2)
	}
	if z2 <= 10 {
		t.Fatalf("zeta = %g, must exceed the shift", z2)
	}
}

// TestEPAnnulusDistribution validates EP's Gaussian tallies against the
// analytic distribution: for independent standard normals X, Y the
// probability of annulus l is (2*Phi(l+1)-1)^2 - (2*Phi(l)-1)^2.
func TestEPAnnulusDistribution(t *testing.T) {
	m := 18
	if !testing.Short() {
		m = 21 // 2M pairs: tight confidence intervals
	}
	res := EPHost(m)
	pairs := float64(res.Pairs())
	phi := func(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }
	square := func(l float64) float64 {
		c := 2*phi(l) - 1
		return c * c
	}
	for l := 0; l < 4; l++ {
		want := square(float64(l+1)) - square(float64(l))
		got := float64(res.Q[l]) / pairs
		// 5-sigma binomial tolerance.
		sigma := math.Sqrt(want * (1 - want) / pairs)
		if math.Abs(got-want) > 5*sigma+1e-9 {
			t.Errorf("annulus %d: fraction %.6f, want %.6f +/- %.2g", l, got, want, 5*sigma)
		}
	}
}

// TestEPLargerClassParallelEqualsHost exercises the block decomposition
// at a bigger class (1M pairs across an 8-block grid).
func TestEPLargerClassParallelEqualsHost(t *testing.T) {
	if testing.Short() {
		t.Skip("large EP class skipped in -short mode")
	}
	const m = 20
	mem := newTestMem(1 << 20)
	out := mem.alloc(int64(8*epResultFloats) * 8)
	runKernels(t, mem, NewEP(m, 8, out))
	got := EPCollect(cuda.Float64s(mem, out, 8*epResultFloats), 8)
	want := EPHost(m)
	if got.Q != want.Q || math.Abs(got.Sx-want.Sx) > 1e-8 || math.Abs(got.Sy-want.Sy) > 1e-8 {
		t.Fatalf("parallel tally diverges: got (%.10g, %.10g) %v, want (%.10g, %.10g) %v",
			got.Sx, got.Sy, got.Q, want.Sx, want.Sy, want.Q)
	}
}

// VecAddHost is the host reference: dst[i] = a[i] + b[i].
func VecAddHost(dst, a, b []float32) {
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Pairs returns the number of accepted Gaussian pairs.
func (r EPResult) Pairs() int64 {
	var n int64
	for _, q := range r.Q {
		n += q
	}
	return n
}
