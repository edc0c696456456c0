package fermi

import "fmt"

// BlockResources describes the per-block resource footprint of a kernel,
// the inputs to the CUDA occupancy calculation.
type BlockResources struct {
	ThreadsPerBlock   int
	RegsPerThread     int
	SharedMemPerBlock int // bytes (static + dynamic)
}

// Occupancy is the result of the occupancy calculation for one kernel on
// one architecture.
type Occupancy struct {
	BlocksPerSM   int // active thread blocks per SM
	WarpsPerBlock int // allocation-granular warps per block
}

func roundUp(v, unit int) int {
	if unit <= 1 {
		return v
	}
	return (v + unit - 1) / unit * unit
}

// Occupancy runs the CUDA occupancy calculation for a kernel with the
// given per-block resources, following the CUDA 3.2 occupancy calculator
// rules for the architecture's limits.
func (a Arch) Occupancy(r BlockResources) (Occupancy, error) {
	if r.ThreadsPerBlock <= 0 {
		return Occupancy{}, fmt.Errorf("fermi: ThreadsPerBlock must be positive, got %d", r.ThreadsPerBlock)
	}
	if r.ThreadsPerBlock > a.MaxThreadsPerBlock {
		return Occupancy{}, fmt.Errorf("fermi: %d threads/block exceeds %s limit %d",
			r.ThreadsPerBlock, a.Name, a.MaxThreadsPerBlock)
	}
	if r.RegsPerThread < 0 || r.SharedMemPerBlock < 0 {
		return Occupancy{}, fmt.Errorf("fermi: negative per-block resources")
	}
	if r.SharedMemPerBlock > a.SharedMemPerSM {
		return Occupancy{}, fmt.Errorf("fermi: %d B shared memory/block exceeds %s SM limit %d B",
			r.SharedMemPerBlock, a.Name, a.SharedMemPerSM)
	}

	warpsRaw := (r.ThreadsPerBlock + a.WarpSize - 1) / a.WarpSize
	warps := roundUp(warpsRaw, a.WarpAllocGran)

	byBlocks := a.MaxBlocksPerSM
	byWarps := a.MaxWarpsPerSM / warps

	byRegs := a.MaxBlocksPerSM
	if r.RegsPerThread > 0 {
		regsPerWarp := roundUp(r.RegsPerThread*a.WarpSize, a.RegAllocUnit)
		regsPerBlock := regsPerWarp * warps
		if regsPerBlock > a.RegsPerSM {
			return Occupancy{}, fmt.Errorf("fermi: kernel needs %d registers/block, SM has %d",
				regsPerBlock, a.RegsPerSM)
		}
		byRegs = a.RegsPerSM / regsPerBlock
	}

	byShmem := a.MaxBlocksPerSM
	if r.SharedMemPerBlock > 0 {
		shm := roundUp(r.SharedMemPerBlock, a.SharedAllocUnit)
		byShmem = a.SharedMemPerSM / shm
	}

	blocks := byBlocks
	limit := "blocks"
	if byWarps < blocks {
		blocks, limit = byWarps, "warps"
	}
	if byRegs < blocks {
		blocks, limit = byRegs, "registers"
	}
	if byShmem < blocks {
		blocks, limit = byShmem, "sharedmem"
	}
	if blocks < 1 {
		return Occupancy{}, fmt.Errorf("fermi: kernel cannot fit a single block on an SM (limited by %s)", limit)
	}
	return Occupancy{BlocksPerSM: blocks, WarpsPerBlock: warps}, nil
}
