package workloads

import (
	"strings"
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/kernels"
	"gpuvirt/internal/task"
)

// buildAll constructs a workload's kernels against a fake allocator to
// check specs are internally consistent without a simulator.
type fakeAlloc struct{ next cuda.DevPtr }

func (a *fakeAlloc) Malloc(n int64) (cuda.DevPtr, error) {
	p := a.next + 256
	a.next = p + cuda.DevPtr((n+255)/256*256)
	return p, nil
}
func (a *fakeAlloc) Free(p cuda.DevPtr) error { return nil }

func buildKernels(t *testing.T, w Workload) []*cuda.Kernel {
	t.Helper()
	spec := w.Spec(0)
	al := &fakeAlloc{}
	in, _ := al.Malloc(max64(spec.InBytes, 1))
	out, _ := al.Malloc(max64(spec.OutBytes, 1))
	var scratch []cuda.DevPtr
	ks, err := spec.Build(&task.Buffers{In: in, Out: out, Alloc: al, Scratch: &scratch})
	if err != nil {
		t.Fatalf("%s: Build: %v", w.Name, err)
	}
	return ks
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestPaperProblemSizesMatchTableIV(t *testing.T) {
	cases := []struct {
		w     Workload
		size  string
		grid  int
		class Class
	}{
		{PaperMM(), "2048x2048 Matrix", 4096, Intermediate},
		{PaperMG(), "S(32x32x32 Nit=4)", 64, CompIntensive},
		{PaperBlackScholes(), "1M call, Nit=512", 480, IOIntensive},
		{PaperCG(), "S(NA=1400, Nit=15)", 8, CompIntensive},
		{PaperElectrostatics(), "100K atoms, Nit=25", 288, CompIntensive},
	}
	for _, c := range cases {
		if c.w.ProblemSize != c.size {
			t.Errorf("%s: ProblemSize = %q, want %q", c.w.Name, c.w.ProblemSize, c.size)
		}
		if c.w.GridSize != c.grid {
			t.Errorf("%s: GridSize = %d, want %d (Table IV)", c.w.Name, c.w.GridSize, c.grid)
		}
		if c.w.Class != c.class {
			t.Errorf("%s: Class = %s, want %s", c.w.Name, c.w.Class, c.class)
		}
	}
}

func TestMicrobenchmarkSwitchCosts(t *testing.T) {
	if PaperVectorAdd().SwitchCost.Seconds()*1e3 != 148.226 {
		t.Fatal("VectorAdd switch cost != Table II's 148.226 ms")
	}
	if PaperEP().SwitchCost.Seconds()*1e3 != 220.599 {
		t.Fatal("EP switch cost != Table II's 220.599 ms")
	}
}

func TestPaperVectorAddShape(t *testing.T) {
	w := PaperVectorAdd()
	if w.GridSize < 48000 || w.GridSize > 50000 {
		t.Fatalf("grid = %d, want ~50K (Table II)", w.GridSize)
	}
	spec := w.Spec(0)
	if spec.InBytes != 400_000_000 || spec.OutBytes != 200_000_000 {
		t.Fatalf("in/out = %d/%d; 50M floats move 400+200 MB", spec.InBytes, spec.OutBytes)
	}
}

func TestAllPaperKernelsValidateOnC2070(t *testing.T) {
	arch := fermi.TeslaC2070()
	all := append([]Workload{PaperVectorAdd(), PaperEP()}, PaperApplications()...)
	for _, w := range all {
		for _, k := range buildKernels(t, w) {
			if err := k.Validate(arch); err != nil {
				t.Errorf("%s kernel %s: %v", w.Name, k.Name, err)
			}
		}
	}
}

func TestGridSizesOfBuiltKernels(t *testing.T) {
	// The first (or only) compute kernel's grid equals Table II/IV's
	// published grid size.
	cases := []struct {
		w    Workload
		grid int
		name string
	}{
		{PaperVectorAdd(), 48829, "vecadd"},
		{PaperEP(), 4, "nas-ep"},
		{PaperMM(), 4096, "mm"},
		{PaperBlackScholes(), 480, "blackscholes"},
		{PaperElectrostatics(), 288, "electrostatics"},
	}
	for _, c := range cases {
		ks := buildKernels(t, c.w)
		found := false
		for _, k := range ks {
			if k.Name == c.name {
				found = true
				if k.Blocks() != c.grid {
					t.Errorf("%s: grid = %d, want %d", c.name, k.Blocks(), c.grid)
				}
				break
			}
		}
		if !found {
			t.Errorf("%s: kernel %q not built", c.w.Name, c.name)
		}
	}
}

func TestCGSequenceLength(t *testing.T) {
	// 15 outer iterations x (init 2 + 25 steps x 5 + outer 3) = 1950
	// launches: the real shape of GPU CG.
	ks := buildKernels(t, PaperCG())
	want := 15 * (2 + 25*5 + 3)
	if len(ks) != want {
		t.Fatalf("CG sequence = %d kernels, want %d", len(ks), want)
	}
}

func TestMGSequenceLength(t *testing.T) {
	ks := buildKernels(t, PaperMG())
	// 1 zero + 4 iterations x 18 kernels: resid, 3 rprj3, bottom
	// (zero+psinv), 2 up-levels x (zero,interp,resid,psinv), finest
	// (interp,resid,psinv), norm.
	want := 1 + 4*18
	if len(ks) != want {
		t.Fatalf("MG sequence = %d kernels, want %d", len(ks), want)
	}
}

func TestWorkScaleApplied(t *testing.T) {
	w := MM(64)
	built := buildKernels(t, w)[0]
	raw := kernels.NewMMTiled(0, 0, 0, 64, 32)
	ratio := built.CyclesPerThread / raw.CyclesPerThread
	if ratio != w.WorkScale {
		t.Fatalf("WorkScale ratio = %v, want %v", ratio, w.WorkScale)
	}
}

func TestFillCheckRoundTripVectorAdd(t *testing.T) {
	w := VectorAdd(512)
	spec := w.Spec(1)
	in := make([]byte, spec.InBytes)
	w.Fill(1, in)
	// Compute the expected output on the host and verify Check accepts it.
	a := f32view(in, 0, 512)
	b := f32view(in, 512*4, 512)
	out := make([]byte, spec.OutBytes)
	c := f32view(out, 0, 512)
	for i := range c {
		c[i] = a[i] + b[i]
	}
	if err := w.Check(1, out); err != nil {
		t.Fatalf("Check rejected a correct result: %v", err)
	}
	c[100] += 1
	if err := w.Check(1, out); err == nil {
		t.Fatal("Check accepted a corrupted result")
	}
}

func TestHumanCount(t *testing.T) {
	cases := map[int]string{
		50_000_000: "50M",
		1_000_000:  "1M",
		100_000:    "100K",
		123:        "123",
	}
	for n, want := range cases {
		if got := humanCount(n); got != want {
			t.Errorf("humanCount(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestProblemSizeStringsLookRight(t *testing.T) {
	if !strings.Contains(PaperVectorAdd().ProblemSize, "50M") {
		t.Fatalf("vecadd size = %q", PaperVectorAdd().ProblemSize)
	}
	if !strings.Contains(PaperEP().ProblemSize, "M=30") {
		t.Fatalf("EP size = %q", PaperEP().ProblemSize)
	}
}
