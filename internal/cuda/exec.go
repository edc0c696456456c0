package cuda

import (
	"fmt"
	"runtime"
	"sync"
)

// Executor runs functional kernel launches with a bounded worker pool,
// fanning the thread blocks of one launch out across workers in
// deterministic, contiguous block-range chunks.
//
// The parallel path is bit-identical to serial execution (RunFunctional)
// for every kernel that honors the SerialOnly contract: each block's
// writes must be disjoint from every other block's reads and writes
// within the same launch — the same discipline real CUDA kernels need,
// since the hardware gives no inter-block ordering either. Each chunk is
// a contiguous flat block range executed in ascending order, so per-block
// results (including float rounding) cannot depend on the worker count.
//
// Kernels that break the contract — cross-block reductions or scans that
// exploit the host loop's sequential block order — declare
// Kernel.SerialOnly and are executed by the serial reference path
// regardless of the pool size.
type Executor struct {
	workers int
}

// Serial is the single-worker executor: every launch runs on the calling
// goroutine via RunFunctional. A nil *Executor behaves the same, so a
// zero-configured device stays serial-safe.
var Serial = &Executor{workers: 1}

// NewExecutor returns an executor with the given pool size. workers <= 0
// selects GOMAXPROCS, mirroring the host's SPMD core count.
func NewExecutor(workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Executor{workers: workers}
}

// Workers returns the pool size.
func (e *Executor) Workers() int {
	if e == nil {
		return 1
	}
	return e.workers
}

// Run executes k's functional body for every block of the grid against
// mem. Launches with at least two blocks per worker run on the pool;
// smaller launches and SerialOnly kernels take the serial reference path.
// It returns an error if the kernel has no functional body.
func (e *Executor) Run(k *Kernel, mem Memory) error {
	if k.Func == nil {
		return fmt.Errorf("cuda: kernel %q has no functional body", k.Name)
	}
	blocks := k.Blocks()
	if e == nil || k.SerialOnly || e.workers <= 1 || blocks < 2*e.workers {
		return k.RunFunctional(mem)
	}
	workers := e.workers
	var wg sync.WaitGroup
	panics := make([]any, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		lo := w * blocks / workers
		hi := (w + 1) * blocks / workers
		go func() {
			defer wg.Done()
			defer func() {
				// Functional bodies panic on device-memory misuse; carry
				// the panic back to the launching goroutine so it surfaces
				// exactly as in serial execution.
				if r := recover(); r != nil {
					panics[w] = r
				}
			}()
			var bc BlockCtx
			k.runBlockRange(&bc, mem, lo, hi)
		}()
	}
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
	return nil
}

// runBlockRange executes the kernel body for flat block indices [lo, hi)
// in ascending order through bc. Flat order matches RunFunctional: x
// fastest, then y, then z. The range shares bc, whose BlockIdx is rewritten
// per block; bodies honor the BlockCtx contract and never keep it. bc is
// the kernel's own for a serial run and a worker's own on the pool, so
// none is shared across goroutines.
func (k *Kernel) runBlockRange(bc *BlockCtx, mem Memory, lo, hi int) {
	g := k.Grid.Norm()
	*bc = BlockCtx{
		GridDim:  g,
		BlockDim: k.Block.Norm(),
		Mem:      mem,
		Args:     k.Args,
	}
	for i := lo; i < hi; i++ {
		bc.BlockIdx = Dim3{X: i % g.X, Y: (i / g.X) % g.Y, Z: i / (g.X * g.Y)}
		k.Func(bc)
	}
}
