package cuda

import (
	"testing"
	"testing/quick"

	"gpuvirt/internal/fermi"
)

func TestDimConstruction(t *testing.T) {
	if d := Dim(5); d != (Dim3{5, 1, 1}) {
		t.Fatalf("Dim(5) = %+v", d)
	}
	if d := Dim(4, 3); d != (Dim3{4, 3, 1}) {
		t.Fatalf("Dim(4,3) = %+v", d)
	}
	if d := Dim(4, 3, 2); d != (Dim3{4, 3, 2}) {
		t.Fatalf("Dim(4,3,2) = %+v", d)
	}
	if d := Dim(0); d != (Dim3{1, 1, 1}) {
		t.Fatalf("Dim(0) = %+v, want normalized", d)
	}
}

func TestDimCountAndFlat(t *testing.T) {
	e := Dim(4, 3, 2)
	if e.Count() != 24 {
		t.Fatalf("Count = %d", e.Count())
	}
	// Flat is x-major: idx = (z*Y + y)*X + x.
	if got := (Dim3{X: 1, Y: 2, Z: 1}).Flat(e); got != (1*3+2)*4+1 {
		t.Fatalf("Flat = %d", got)
	}
	if got := (Dim3{}).Flat(e); got != 0 {
		t.Fatalf("Flat origin = %d", got)
	}
}

func TestDimString(t *testing.T) {
	cases := []struct {
		d    Dim3
		want string
	}{
		{Dim(7), "7"},
		{Dim(4, 2), "4x2"},
		{Dim(4, 2, 3), "4x2x3"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestKernelAccounting(t *testing.T) {
	k := &Kernel{
		Name: "k", Grid: Dim(10, 2), Block: Dim(32, 4),
		CyclesPerThread: 3, MemBytesPerThread: 5,
	}
	if k.Blocks() != 20 {
		t.Fatalf("Blocks = %d", k.Blocks())
	}
	if k.Threads() != 20*128 {
		t.Fatalf("Threads = %d", k.Threads())
	}
	if k.TotalMemBytes() != float64(20*128*5) {
		t.Fatalf("TotalMemBytes = %v", k.TotalMemBytes())
	}
}

func TestKernelValidate(t *testing.T) {
	arch := fermi.TeslaC2070()
	good := &Kernel{Name: "ok", Grid: Dim(4), Block: Dim(128)}
	if err := good.Validate(arch); err != nil {
		t.Fatal(err)
	}
	bad := []*Kernel{
		{Name: "bigblock", Grid: Dim(1), Block: Dim(2048)},
		{Name: "negcost", Grid: Dim(1), Block: Dim(32), CyclesPerThread: -1},
		{Name: "negmem", Grid: Dim(1), Block: Dim(32), MemBytesPerThread: -1},
		{Name: "fatshmem", Grid: Dim(1), Block: Dim(32), SharedMemPerBlock: 1 << 20},
	}
	for _, k := range bad {
		if err := k.Validate(arch); err == nil {
			t.Errorf("%s: Validate accepted invalid kernel", k.Name)
		}
	}
}

type testMemory struct{ data []byte }

func (m *testMemory) Bytes(p DevPtr, n int64) []byte { return m.data[p : int64(p)+n] }

func TestRunFunctionalVisitsAllBlocksInOrder(t *testing.T) {
	var visits []Dim3
	k := &Kernel{
		Name: "visit", Grid: Dim(2, 2, 2), Block: Dim(1),
		Func: func(bc *BlockCtx) { visits = append(visits, bc.BlockIdx) },
	}
	if err := k.RunFunctional(&testMemory{}); err != nil {
		t.Fatal(err)
	}
	if len(visits) != 8 {
		t.Fatalf("visited %d blocks, want 8", len(visits))
	}
	// Deterministic x-fastest order.
	if visits[0] != (Dim3{0, 0, 0}) || visits[1] != (Dim3{1, 0, 0}) || visits[2] != (Dim3{0, 1, 0}) {
		t.Fatalf("visit order = %v", visits[:3])
	}
}

func TestRunFunctionalWithoutBody(t *testing.T) {
	k := &Kernel{Name: "nobody", Grid: Dim(1), Block: Dim(1)}
	if err := k.RunFunctional(&testMemory{}); err == nil {
		t.Fatal("RunFunctional succeeded without a body")
	}
}

func TestTypedViewsRoundTrip(t *testing.T) {
	m := &testMemory{data: make([]byte, 1024)}
	f32 := Float32s(m, 0, 8)
	f32[3] = 2.5
	if Float32s(m, 0, 8)[3] != 2.5 {
		t.Fatal("Float32s view not aliasing")
	}
	f64 := Float64s(m, 256, 4)
	f64[0] = -1.25
	if Float64s(m, 256, 4)[0] != -1.25 {
		t.Fatal("Float64s view not aliasing")
	}
	i32 := Int32s(m, 512, 4)
	i32[2] = -7
	if Int32s(m, 512, 4)[2] != -7 {
		t.Fatal("Int32s view not aliasing")
	}
}

func TestHostBytesAlias(t *testing.T) {
	v := []float32{1, 2, 3}
	b := HostFloat32Bytes(v)
	if len(b) != 12 {
		t.Fatalf("len = %d", len(b))
	}
	v[0] = 9
	if Float32s(&testMemory{data: b}, 0, 1)[0] != 9 {
		t.Fatal("HostFloat32Bytes does not alias")
	}
	d := []float64{1.5}
	bd := HostFloat64Bytes(d)
	if len(bd) != 8 {
		t.Fatalf("float64 len = %d", len(bd))
	}
	if HostFloat32Bytes(nil) != nil || HostFloat64Bytes(nil) != nil {
		t.Fatal("nil slices should map to nil")
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1.0, 1.0, 0) {
		t.Fatal("identical values not equal")
	}
	if !AlmostEqual(100, 100.001, 1e-4) {
		t.Fatal("within tolerance rejected")
	}
	if AlmostEqual(100, 101, 1e-4) {
		t.Fatal("outside tolerance accepted")
	}
	if !AlmostEqual(0, 1e-13, 1e-9) {
		t.Fatal("near-zero handling broken")
	}
}

// Property: Flat is a bijection from coordinates to [0, Count).
func TestQuickFlatBijection(t *testing.T) {
	f := func(xr, yr, zr uint8) bool {
		e := Dim3{X: int(xr%5) + 1, Y: int(yr%5) + 1, Z: int(zr%5) + 1}
		seen := make(map[int]bool)
		for z := 0; z < e.Z; z++ {
			for y := 0; y < e.Y; y++ {
				for x := 0; x < e.X; x++ {
					i := (Dim3{X: x, Y: y, Z: z}).Flat(e)
					if i < 0 || i >= e.Count() || seen[i] {
						return false
					}
					seen[i] = true
				}
			}
		}
		return len(seen) == e.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
