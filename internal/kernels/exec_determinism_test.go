package kernels

import (
	"bytes"
	"testing"

	"gpuvirt/internal/cuda"
)

// execCase builds one workload's full kernel sequence against a fresh
// arena with deterministic inputs, so two builds are byte-identical
// before execution.
type execCase struct {
	name  string
	build func() (*testMem, []*cuda.Kernel)
}

func execCases() []execCase {
	return []execCase{
		{"vecadd", func() (*testMem, []*cuda.Kernel) {
			const n = 40000 // 40 blocks
			mem := newTestMem(1 << 20)
			a := make([]float32, n)
			b := make([]float32, n)
			for i := range a {
				a[i] = float32(i) * 0.5
				b[i] = float32(n - i)
			}
			pa, pb := mem.putF32(a), mem.putF32(b)
			pc := mem.alloc(n * 4)
			return mem, []*cuda.Kernel{NewVecAdd(pa, pb, pc, n)}
		}},
		{"ep", func() (*testMem, []*cuda.Kernel) {
			mem := newTestMem(1 << 20)
			out := mem.alloc(int64(16*epResultFloats) * 8)
			return mem, []*cuda.Kernel{NewEP(14, 16, out)}
		}},
		{"mm", func() (*testMem, []*cuda.Kernel) {
			const n = 64 // 4x4 = 16 tile blocks
			mem := newTestMem(1 << 20)
			a := make([]float32, n*n)
			b := make([]float32, n*n)
			for i := range a {
				a[i] = float32((i*7)%13) / 13
				b[i] = float32((i*5)%11) / 11
			}
			pa, pb := mem.putF32(a), mem.putF32(b)
			pc := mem.alloc(n * n * 4)
			return mem, []*cuda.Kernel{NewMMTiled(pa, pb, pc, n, MMTile)}
		}},
		{"blackscholes", func() (*testMem, []*cuda.Kernel) {
			const n = 20000
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
			return mem, []*cuda.Kernel{NewBlackScholes(ps, px, pt, pc, pp, n, 2, 16, DefaultBSParams())}
		}},
		{"electrostatics", func() (*testMem, []*cuda.Kernel) {
			const natoms = 200
			p := ESParams{GridX: 64, GridY: 32, Spacing: 0.5, Z: 1.0}
			mem := newTestMem(1 << 20)
			atoms := make([]float32, natoms*4)
			for i := 0; i < natoms; i++ {
				atoms[4*i] = float32(i%17) * 0.7
				atoms[4*i+1] = float32(i%13) * 0.6
				atoms[4*i+2] = float32(i%7) * 0.4
				atoms[4*i+3] = float32(i%3) - 1
			}
			pa := mem.putF32(atoms)
			po := mem.alloc(int64(p.GridX*p.GridY) * 4)
			return mem, []*cuda.Kernel{NewElectrostatics(pa, po, natoms, 2, 16, p)}
		}},
		{"nas-mg", func() (*testMem, []*cuda.Kernel) {
			const n, levels, iters = 16, 3, 2
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
			ks := []*cuda.Kernel{NewMGZero(st.Finest().U, n)}
			for it := 0; it < iters; it++ {
				ks = append(ks, BuildMGIteration(st)...)
			}
			return mem, ks
		}},
		{"nas-cg", func() (*testMem, []*cuda.Kernel) {
			const n, gridBlocks, steps = 256, 16, 6
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
			return mem, BuildCGSolve(b, m.NNZ(), steps)
		}},
		{"nas-is", func() (*testMem, []*cuda.Kernel) {
			const n, buckets, grid = 10000, 128, 16
			mem := newTestMem(4 << 20)
			b, _ := isSetup(mem, n, buckets, grid, 42)
			return mem, BuildISSort(b, 2)
		}},
		{"nas-ft", func() (*testMem, []*cuda.Kernel) {
			const edge, iters, grid = 8, 2, 16
			n := edge * edge * edge
			mem := newTestMem(4 << 20)
			data := make([]float64, 2*n)
			FTMakeInput(data, 20110711)
			b := FTBuffers{
				NX: edge, NY: edge, NZ: edge,
				GridBlocks: grid,
				Freq:       mem.putF64(data),
				Work:       mem.alloc(int64(16 * n)),
				Checksums:  mem.alloc(int64(16 * iters)),
			}
			return mem, BuildFTBenchmark(b, iters)
		}},
	}
}

// TestParallelExecutionBitIdentical is the executor's determinism
// contract applied to every functional workload in the repo: the entire
// device arena after a parallel run (workers 1, 2, 8) must equal the
// serial reference byte for byte — including float rounding. SerialOnly
// kernels inside the sequences (cg reductions, is-scan, ft-checksum)
// exercise the fallback path in context.
func TestParallelExecutionBitIdentical(t *testing.T) {
	for _, c := range execCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			refMem, refKs := c.build()
			for _, k := range refKs {
				if err := k.RunFunctional(refMem); err != nil {
					t.Fatalf("serial %s: %v", k.Name, err)
				}
			}
			for _, workers := range []int{1, 2, 8} {
				ex := cuda.NewExecutor(workers)
				mem, ks := c.build()
				for _, k := range ks {
					if err := ex.Run(k, mem); err != nil {
						t.Fatalf("workers=%d %s: %v", workers, k.Name, err)
					}
				}
				if !bytes.Equal(mem.data, refMem.data) {
					i := 0
					for i < len(mem.data) && mem.data[i] == refMem.data[i] {
						i++
					}
					t.Fatalf("workers=%d: arena diverges from serial reference at byte %d (0x%02x vs 0x%02x)",
						workers, i, mem.data[i], refMem.data[i])
				}
			}
		})
	}
}
