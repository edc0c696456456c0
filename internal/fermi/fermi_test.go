package fermi

import (
	"math"
	"testing"
	"testing/quick"

	"gpuvirt/internal/sim"
)

func TestPresetsValidate(t *testing.T) {
	for _, a := range []Arch{TeslaC2070(), TeslaC1060()} {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestC2070Geometry(t *testing.T) {
	a := TeslaC2070()
	if a.SMs != 14 || a.CoresPerSM != 32 {
		t.Fatalf("C2070 geometry = %dx%d, want 14x32 (paper, Section VI)", a.SMs, a.CoresPerSM)
	}
	if a.MaxConcurrentKernels != 16 {
		t.Fatalf("MaxConcurrentKernels = %d, want 16", a.MaxConcurrentKernels)
	}
	if a.MemBytes != 6<<30 {
		t.Fatalf("MemBytes = %d, want 6 GiB", a.MemBytes)
	}
	// 448 cores at 1.15 GHz: a single-precision peak of 1.03 TFLOP/s.
	if a.ClockHz != 1.15e9 {
		t.Fatalf("ClockHz = %g, want 1.15e9", a.ClockHz)
	}
}

func TestValidateCatchesBadArch(t *testing.T) {
	bad := func(mutate func(*Arch)) Arch {
		a := TeslaC2070()
		mutate(&a)
		return a
	}
	cases := []Arch{
		bad(func(a *Arch) { a.SMs = 0 }),
		bad(func(a *Arch) { a.WarpSize = 0 }),
		bad(func(a *Arch) { a.MaxThreadsPerBlock = 0 }),
		bad(func(a *Arch) { a.MaxWarpsPerSM = 1 }),
		bad(func(a *Arch) { a.MaxBlocksPerSM = 0 }),
		bad(func(a *Arch) { a.RegsPerSM = 0 }),
		bad(func(a *Arch) { a.MaxConcurrentKernels = 0 }),
		bad(func(a *Arch) { a.CopyEngines = 0 }),
		bad(func(a *Arch) { a.H2DBandwidth = 0 }),
		bad(func(a *Arch) { a.MemBytes = 0 }),
	}
	for i, a := range cases {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted a broken arch", i)
		}
	}
}

func TestTransferTimeBandwidths(t *testing.T) {
	a := TeslaC2070()
	var n int64 = 200 << 20 // 200 MiB
	h2d := a.TransferTime(n, true, false)
	d2h := a.TransferTime(n, false, false)
	h2dPin := a.TransferTime(n, true, true)
	// Pageable H2D at 2.95 GB/s: ~71 ms for 200 MiB.
	wantH2D := sim.Duration(float64(n)/2.95e9*1e9) + a.TransferLatency
	if h2d != wantH2D {
		t.Fatalf("h2d = %v, want %v", h2d, wantH2D)
	}
	if h2dPin >= h2d {
		t.Fatalf("pinned transfer (%v) not faster than pageable (%v)", h2dPin, h2d)
	}
	if d2h <= 0 {
		t.Fatalf("d2h = %v", d2h)
	}
	if a.TransferTime(0, true, false) != 0 {
		t.Fatal("zero-byte transfer should cost nothing")
	}
	if a.TransferTime(-5, true, false) != 0 {
		t.Fatal("negative-byte transfer should cost nothing")
	}
}

// Reference occupancy cases cross-checked against the CUDA 3.2 occupancy
// calculator for compute capability 2.0.
func TestOccupancyReferenceCases(t *testing.T) {
	a := TeslaC2070()
	cases := []struct {
		name       string
		r          BlockResources
		wantBlocks int
		wantWarps  int
		wantFrac   float64
		wantLimit  string
	}{
		// 256 thr, 20 regs, no shmem: 8 warps/block; regs allow 6 blocks;
		// warps also allow 6 blocks -> 48/48 warps = 100% (warps reported
		// as the limiter on ties, checked first).
		{"256t20r", BlockResources{256, 20, 0}, 6, 8, 1.0, "warps"},
		// 1024 thr, 20 regs: 32 warps/block, only 1 block fits by warps.
		{"1024t20r", BlockResources{1024, 20, 0}, 1, 32, 32.0 / 48.0, "warps"},
		// 64 thr, 16 regs: 2 warps/block, block limit 8 -> 16 warps = 33%.
		{"64t16r", BlockResources{64, 16, 0}, 8, 2, 16.0 / 48.0, "blocks"},
		// 192 thr, 21 regs: 6 warps/block; 21*32=672 -> 704/warp alloc;
		// 704*6=4224/block; 32768/4224=7 blocks; warps: 48/6=8 -> regs limit;
		// 7*6=42 warps = 87.5%.
		{"192t21r", BlockResources{192, 21, 0}, 7, 6, 42.0 / 48.0, "registers"},
		// Shared memory bound: 48K/SM, 12K/block -> 4 blocks.
		{"shmem12k", BlockResources{128, 8, 12 * 1024}, 4, 4, 16.0 / 48.0, "sharedmem"},
		// 33 threads round up to 2 warps (warp alloc granularity 2).
		{"33t", BlockResources{33, 8, 0}, 8, 2, 16.0 / 48.0, "blocks"},
	}
	for _, c := range cases {
		occ, err := a.Occupancy(c.r)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if occ.BlocksPerSM != c.wantBlocks {
			t.Errorf("%s: BlocksPerSM = %d, want %d", c.name, occ.BlocksPerSM, c.wantBlocks)
		}
		if occ.WarpsPerBlock != c.wantWarps {
			t.Errorf("%s: WarpsPerBlock = %d, want %d", c.name, occ.WarpsPerBlock, c.wantWarps)
		}
		if frac := occupancyFraction(a, occ); math.Abs(frac-c.wantFrac) > 1e-9 {
			t.Errorf("%s: fraction = %v, want %v", c.name, frac, c.wantFrac)
		}
		if got := blocksAllowedBy(a, c.r, occ.WarpsPerBlock, c.wantLimit); got != occ.BlocksPerSM {
			t.Errorf("%s: %s allow %d blocks, but %d are resident: %s is not the binding limit", c.name, c.wantLimit, got, occ.BlocksPerSM, c.wantLimit)
		}
	}
}

// occupancyFraction is the share of the SM's warp slots occ fills.
func occupancyFraction(a Arch, occ Occupancy) float64 {
	return float64(occ.BlocksPerSM*occ.WarpsPerBlock) / float64(a.MaxWarpsPerSM)
}

// blocksAllowedBy is how many blocks of r one SM's limit alone admits:
// "blocks", "warps", "registers" or "sharedmem".
func blocksAllowedBy(a Arch, r BlockResources, warps int, limit string) int {
	switch limit {
	case "warps":
		return a.MaxWarpsPerSM / warps
	case "registers":
		return a.RegsPerSM / (roundUp(r.RegsPerThread*a.WarpSize, a.RegAllocUnit) * warps)
	case "sharedmem":
		return a.SharedMemPerSM / roundUp(r.SharedMemPerBlock, a.SharedAllocUnit)
	}
	return a.MaxBlocksPerSM
}

func TestOccupancyErrors(t *testing.T) {
	a := TeslaC2070()
	cases := []BlockResources{
		{0, 8, 0},           // zero threads
		{-1, 8, 0},          // negative threads
		{2048, 8, 0},        // over max threads/block
		{128, -1, 0},        // negative regs
		{128, 8, -1},        // negative shmem
		{128, 8, 64 * 1024}, // shmem over SM limit
		{1024, 63, 0},       // registers cannot fit one block
	}
	for i, r := range cases {
		if _, err := a.Occupancy(r); err == nil {
			t.Errorf("case %d (%+v): expected error", i, r)
		}
	}
}

// Property: for any valid kernel footprint, the occupancy result respects
// every hardware limit simultaneously.
func TestQuickOccupancyRespectsLimits(t *testing.T) {
	a := TeslaC2070()
	f := func(thrRaw, regRaw uint16, shmRaw uint32) bool {
		r := BlockResources{
			ThreadsPerBlock:   int(thrRaw%1024) + 1,
			RegsPerThread:     int(regRaw % 64),
			SharedMemPerBlock: int(shmRaw % uint32(a.SharedMemPerSM+1)),
		}
		occ, err := a.Occupancy(r)
		if err != nil {
			return true // rejected footprints are fine
		}
		if occ.BlocksPerSM < 1 || occ.BlocksPerSM > a.MaxBlocksPerSM {
			return false
		}
		if occ.BlocksPerSM*occ.WarpsPerBlock > a.MaxWarpsPerSM {
			return false
		}
		if r.RegsPerThread > 0 {
			regsPerWarp := roundUp(r.RegsPerThread*a.WarpSize, a.RegAllocUnit)
			if occ.BlocksPerSM*occ.WarpsPerBlock*regsPerWarp > a.RegsPerSM {
				return false
			}
		}
		if r.SharedMemPerBlock > 0 {
			if occ.BlocksPerSM*roundUp(r.SharedMemPerBlock, a.SharedAllocUnit) > a.SharedMemPerSM {
				return false
			}
		}
		if f := occupancyFraction(a, occ); f <= 0 || f > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: occupancy is monotonically non-increasing in every resource
// demand (more registers or shared memory never increases blocks/SM).
func TestQuickOccupancyMonotone(t *testing.T) {
	a := TeslaC2070()
	f := func(thrRaw, regRaw uint16, shmRaw uint32) bool {
		r := BlockResources{
			ThreadsPerBlock:   int(thrRaw%512) + 1,
			RegsPerThread:     int(regRaw%32) + 1,
			SharedMemPerBlock: int(shmRaw % 24576),
		}
		base, err := a.Occupancy(r)
		if err != nil {
			return true
		}
		moreRegs := r
		moreRegs.RegsPerThread++
		if o2, err := a.Occupancy(moreRegs); err == nil && o2.BlocksPerSM > base.BlocksPerSM {
			return false
		}
		moreShm := r
		moreShm.SharedMemPerBlock += 256
		if o3, err := a.Occupancy(moreShm); err == nil && o3.BlocksPerSM > base.BlocksPerSM {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundUp(t *testing.T) {
	cases := []struct{ v, unit, want int }{
		{0, 64, 0}, {1, 64, 64}, {64, 64, 64}, {65, 64, 128},
		{100, 1, 100}, {100, 0, 100}, {127, 128, 128},
	}
	for _, c := range cases {
		if got := roundUp(c.v, c.unit); got != c.want {
			t.Errorf("roundUp(%d,%d) = %d, want %d", c.v, c.unit, got, c.want)
		}
	}
}
