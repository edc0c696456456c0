// Package fermi describes NVIDIA Fermi-class GPU architectures (and a
// pre-Fermi reference point) at the level of detail needed by the GPU
// simulator: streaming-multiprocessor geometry, occupancy limits, host-link
// bandwidths and driver overheads.
//
// The numbers for the presets come from the NVIDIA Fermi whitepaper and the
// CUDA 3.2 occupancy calculator, which are the hardware and toolkit used in
// the paper (Tesla C2070, CUDA 3.2).
package fermi

import (
	"fmt"

	"gpuvirt/internal/sim"
)

// Arch is a static description of a GPU plus its host link and driver
// overheads. All bandwidths are in bytes per second of virtual time.
type Arch struct {
	Name string

	// Compute geometry.
	SMs        int     // streaming multiprocessors
	CoresPerSM int     // SP cores per SM
	ClockHz    float64 // SP core clock
	WarpSize   int

	// Occupancy limits (per SM).
	MaxThreadsPerBlock int
	MaxThreadsPerSM    int
	MaxBlocksPerSM     int
	MaxWarpsPerSM      int
	RegsPerSM          int // 32-bit registers
	RegAllocUnit       int // register allocation granularity, per warp
	SharedMemPerSM     int // bytes
	SharedAllocUnit    int // shared memory allocation granularity, bytes
	WarpAllocGran      int // warps are allocated to blocks in multiples of this
	LatencyHidingWarps int // resident warps an SM needs to reach full issue throughput

	// Device memory.
	MemBytes     int64
	MemBandwidth float64 // device-memory bandwidth, bytes/s

	// Concurrency features.
	MaxConcurrentKernels int  // kernels of ONE context that may run at once
	CopyEngines          int  // independent DMA engines (1 = shared for both directions)
	ConcurrentCopyExec   bool // copy/compute overlap supported

	// Host link (PCIe) characteristics.
	H2DBandwidth       float64      // pageable host->device
	D2HBandwidth       float64      // pageable device->host
	H2DPinnedBandwidth float64      // pinned host->device
	D2HPinnedBandwidth float64      // pinned device->host
	TransferLatency    sim.Duration // fixed per-transfer setup cost

	// Driver/runtime overheads.
	KernelLaunchOverhead sim.Duration
	DeviceInitCost       sim.Duration // one-time device/driver initialization
	ContextCreateCost    sim.Duration // per-context creation
	ContextSwitchCost    sim.Duration // switching the device between contexts
}

// TeslaC2070 returns the architecture used in the paper's evaluation: a
// Fermi Tesla 20-series card with 14 SMs x 32 SPs at 1.15 GHz and 6 GB of
// device memory, up to 16 concurrent kernels, two copy engines.
//
// Driver overheads are calibrated so that the micro-benchmark profile of
// the simulator matches the paper's Table II: Tinit for 8 processes
// ~1519 ms, Tctx_switch ~148-220 ms, effective pageable PCIe bandwidth
// ~2.9-3.0 GB/s each direction.
func TeslaC2070() Arch {
	return Arch{
		Name:       "Tesla C2070 (Fermi GF100)",
		SMs:        14,
		CoresPerSM: 32,
		ClockHz:    1.15e9,
		WarpSize:   32,

		MaxThreadsPerBlock: 1024,
		MaxThreadsPerSM:    1536,
		MaxBlocksPerSM:     8,
		MaxWarpsPerSM:      48,
		RegsPerSM:          32768,
		RegAllocUnit:       64,
		SharedMemPerSM:     48 * 1024,
		SharedAllocUnit:    128,
		WarpAllocGran:      2,
		LatencyHidingWarps: 22,

		MemBytes:     6 * 1024 * 1024 * 1024,
		MemBandwidth: 144e9,

		MaxConcurrentKernels: 16,
		CopyEngines:          2,
		ConcurrentCopyExec:   true,

		// Pageable bandwidths reproduce Table II's measured transfer
		// times; the pinned gain is calibrated so the virtualized path
		// lands 10-20% under the model's (pageable-profiled) equation (4)
		// bound, matching the paper's Table III theory-vs-experiment gap.
		H2DBandwidth:       2.95e9,
		D2HBandwidth:       3.00e9,
		H2DPinnedBandwidth: 3.50e9,
		D2HPinnedBandwidth: 3.40e9,
		TransferLatency:    15 * sim.Microsecond,

		KernelLaunchOverhead: 7 * sim.Microsecond,
		DeviceInitCost:       1103 * sim.Millisecond,
		ContextCreateCost:    52 * sim.Millisecond,
		ContextSwitchCost:    148 * sim.Millisecond,
	}
}

// TeslaC1060 is a pre-Fermi (GT200, compute capability 1.3) reference
// point: no concurrent kernel execution and no copy/compute overlap. It is
// used by ablation benchmarks to show how much of the paper's gain depends
// on Fermi's concurrency features.
func TeslaC1060() Arch {
	return Arch{
		Name:       "Tesla C1060 (GT200)",
		SMs:        30,
		CoresPerSM: 8,
		ClockHz:    1.296e9,
		WarpSize:   32,

		MaxThreadsPerBlock: 512,
		MaxThreadsPerSM:    1024,
		MaxBlocksPerSM:     8,
		MaxWarpsPerSM:      32,
		RegsPerSM:          16384,
		RegAllocUnit:       512, // block-granular allocation on GT200
		SharedMemPerSM:     16 * 1024,
		SharedAllocUnit:    512,
		WarpAllocGran:      2,
		LatencyHidingWarps: 16,

		MemBytes:     4 * 1024 * 1024 * 1024,
		MemBandwidth: 102e9,

		MaxConcurrentKernels: 1,
		CopyEngines:          1,
		ConcurrentCopyExec:   false,

		H2DBandwidth:       2.5e9,
		D2HBandwidth:       2.5e9,
		H2DPinnedBandwidth: 3.0e9,
		D2HPinnedBandwidth: 2.9e9,
		TransferLatency:    20 * sim.Microsecond,

		KernelLaunchOverhead: 10 * sim.Microsecond,
		DeviceInitCost:       900 * sim.Millisecond,
		ContextCreateCost:    45 * sim.Millisecond,
		ContextSwitchCost:    120 * sim.Millisecond,
	}
}

// Validate reports structural problems with an architecture description.
func (a Arch) Validate() error {
	switch {
	case a.SMs <= 0:
		return fmt.Errorf("fermi: %s: SMs must be positive", a.Name)
	case a.WarpSize <= 0:
		return fmt.Errorf("fermi: %s: WarpSize must be positive", a.Name)
	case a.MaxThreadsPerBlock <= 0 || a.MaxThreadsPerSM <= 0:
		return fmt.Errorf("fermi: %s: thread limits must be positive", a.Name)
	case a.MaxWarpsPerSM*a.WarpSize < a.MaxThreadsPerSM:
		return fmt.Errorf("fermi: %s: warp limit inconsistent with thread limit", a.Name)
	case a.MaxBlocksPerSM <= 0:
		return fmt.Errorf("fermi: %s: MaxBlocksPerSM must be positive", a.Name)
	case a.RegsPerSM <= 0 || a.SharedMemPerSM < 0:
		return fmt.Errorf("fermi: %s: SM resource limits invalid", a.Name)
	case a.LatencyHidingWarps < 1:
		return fmt.Errorf("fermi: %s: LatencyHidingWarps must be >= 1", a.Name)
	case a.MaxConcurrentKernels <= 0:
		return fmt.Errorf("fermi: %s: MaxConcurrentKernels must be >= 1", a.Name)
	case a.CopyEngines <= 0:
		return fmt.Errorf("fermi: %s: CopyEngines must be >= 1", a.Name)
	case a.H2DBandwidth <= 0 || a.D2HBandwidth <= 0:
		return fmt.Errorf("fermi: %s: host-link bandwidths must be positive", a.Name)
	case a.MemBytes <= 0:
		return fmt.Errorf("fermi: %s: MemBytes must be positive", a.Name)
	}
	return nil
}

// TotalCores returns SMs x CoresPerSM.
func (a Arch) TotalCores() int { return a.SMs * a.CoresPerSM }

// TransferTime returns the virtual time to move n bytes across the host
// link in the given direction, using pinned or pageable buffers.
func (a Arch) TransferTime(n int64, toDevice, pinned bool) sim.Duration {
	if n <= 0 {
		return 0
	}
	var bw float64
	switch {
	case toDevice && pinned:
		bw = a.H2DPinnedBandwidth
	case toDevice:
		bw = a.H2DBandwidth
	case pinned:
		bw = a.D2HPinnedBandwidth
	default:
		bw = a.D2HBandwidth
	}
	return a.TransferLatency + sim.Duration(float64(n)/bw*1e9)
}
