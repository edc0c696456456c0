// Package gpusim is a deterministic discrete-event simulator of a
// Fermi-class GPU: device memory, DMA engines, contexts with switch costs,
// streams, and an SM scheduler with processor-sharing block execution,
// concurrent-kernel window and copy/compute overlap.
//
// The simulator has two modes. In functional mode it allocates real
// backing memory, memcpys move real bytes, and kernels with functional
// bodies compute real results — used by tests and examples. In timing-only
// mode no bytes move and only the virtual clock advances — used by the
// paper-scale experiments, where buffers reach hundreds of megabytes.
//
// An allocation has two halves. Its address is its own for life: Malloc
// hands it out from a per-device range that starts above any card's
// physical memory and is never reused. Its placement is where its bytes sit
// on the card right now, a first-fit range of physical memory, and it is
// what a swap takes away and gives back. A kernel built against an address
// therefore stays valid across an eviction, and a stale pointer cannot
// alias another tenant's fresh allocation at the same physical offset:
// touching an allocation that is off the card panics.
//
// Device memory is host memory, one slice per placed allocation, and four
// rules govern it: a Malloc always hands out zeroed memory; a swap
// (Context.SwapOut / SwapIn) moves ownership of an allocation's slice to
// the caller and back instead of copying it, while the virtual clock still
// charges the full PCIe transfer each way; a slice is only ever attached to
// an allocation it fills, up to the allocator's rounding; and an allocation
// may sit on caller memory (MallocUnbacked, Rebind), which gpusim never
// allocates, keeps or reuses, and which a copy from or to that same memory
// does not move — the copy engines still charge the transfer. So
// evacuating a tenant costs the host nothing proportional to its footprint,
// a staging buffer can be the device memory it stages, and no tenant can
// read what another left behind.
package gpusim

import (
	"fmt"
	"sort"
	"sync/atomic"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/trace"
)

// Config configures a simulated device.
type Config struct {
	Arch       fermi.Arch
	Functional bool          // allocate backing memory and run kernel bodies
	Tracer     *trace.Tracer // optional execution tracer
	// ExecWorkers sizes the worker pool that runs functional kernel
	// bodies: 0 = GOMAXPROCS (parallel across blocks, bit-identical for
	// the block-disjoint kernels in this repo), 1 = strictly serial,
	// n > 1 = fixed pool. Virtual timing is unaffected either way; the
	// knob only changes host CPU usage while a launch's body executes.
	ExecWorkers int
	// PreemptRatio gates wave-boundary preemption in the SM scheduler: a
	// pending kernel preempts an active one iff its weight exceeds
	// ratio x the active kernel's weight. 0 means the default of 1.0
	// (any strictly higher weight preempts); negative disables
	// preemption entirely.
	PreemptRatio float64
}

// Device is one simulated GPU attached to a simulation environment.
type Device struct {
	env        *sim.Env
	arch       fermi.Arch
	functional bool
	tracer     *trace.Tracer
	exec       *cuda.Executor // runs functional kernel bodies

	// Live allocations sorted by address (addresses only grow, so a new
	// one is appended), each with its placement and, in functional mode,
	// its backing memory. Memory use is proportional to what is allocated,
	// not to the card's capacity. alloc places them on the card.
	bufs     []devBuf
	nextAddr cuda.DevPtr
	alloc    *Allocator

	h2dEngine *sim.Resource
	d2hEngine *sim.Resource
	exclusive *sim.Resource // serializes copies and kernels when the arch lacks overlap

	driver      *sim.Resource // serializes device init and context creation
	initialized bool
	nextCtxID   int

	arbOwner     *Context // context currently owning the device
	arbHolder    bool
	arbQueue     []*sim.Event // queued contexts' grants, FIFO
	sched        *smScheduler
	preemptRatio float64

	// XID-style fault state (fault.go). index labels errors and
	// telemetry; fault is atomic so health probes may read it off the
	// owner goroutine; onFault callbacks drive the node health machine;
	// injector, when set, is ticked once per kernel launch.
	index    int
	fault    atomic.Int32
	onFault  []func(FaultKind)
	injector *FaultInjector

	// Counters for tests and reporting.
	ContextSwitches int
	KernelsRun      int
	// preemptions counts wave-boundary preemptions (kernels demoted from
	// the concurrent-kernel window so a higher-weight kernel could run).
	// Atomic so metrics scrapers may read it off the owner goroutine.
	preemptions atomic.Int64
}

// Preemptions returns the wave-boundary preemption count. Safe to call
// from any goroutine.
func (d *Device) Preemptions() int64 { return d.preemptions.Load() }

// New creates a simulated device. The architecture must validate.
func New(env *sim.Env, cfg Config) (*Device, error) {
	if err := cfg.Arch.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		env:        env,
		arch:       cfg.Arch,
		functional: cfg.Functional,
		tracer:     cfg.Tracer,
		exec:       cuda.NewExecutor(cfg.ExecWorkers),
		alloc:      NewAllocator(cfg.Arch.MemBytes, 256),
		nextAddr:   addrBase,
		driver:     env.NewResource(1),
	}
	switch {
	case cfg.PreemptRatio < 0:
		d.preemptRatio = 0 // disabled
	case cfg.PreemptRatio == 0:
		d.preemptRatio = 1.0
	default:
		d.preemptRatio = cfg.PreemptRatio
	}
	d.h2dEngine = env.NewResource(1)
	if cfg.Arch.CopyEngines >= 2 {
		d.d2hEngine = env.NewResource(1)
	} else {
		d.d2hEngine = d.h2dEngine
	}
	if !cfg.Arch.ConcurrentCopyExec {
		d.exclusive = env.NewResource(1)
	}
	d.sched = newSMScheduler(env, d)
	return d, nil
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(env *sim.Env, cfg Config) *Device {
	d, err := New(env, cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Arch returns the device's architecture description.
func (d *Device) Arch() fermi.Arch { return d.arch }

// Functional reports whether the device carries real data.
func (d *Device) Functional() bool { return d.functional }

// MemInUse returns allocated device memory in bytes.
func (d *Device) MemInUse() int64 { return d.alloc.InUse() }

// MemResident returns physically resident device memory in bytes (an
// alias of MemInUse under the residency layer's vocabulary).
func (d *Device) MemResident() int64 { return d.alloc.Resident() }

// MemReserved returns the logical bytes promised to sessions; may
// exceed Arch().MemBytes under overcommit.
func (d *Device) MemReserved() int64 { return d.alloc.Reserved() }

// Reserve records n logical bytes as promised to a session.
func (d *Device) Reserve(n int64) { d.alloc.Reserve(n) }

// Unreserve returns n logical bytes to the pool.
func (d *Device) Unreserve(n int64) { d.alloc.Unreserve(n) }

// RoundUp returns n rounded up to the allocator's alignment.
func (d *Device) RoundUp(n int64) int64 { return d.alloc.RoundUp(n) }

// SetEvictor installs the allocator's make-room callback; see
// Allocator.SetEvictor.
func (d *Device) SetEvictor(fn func(need int64) bool) { d.alloc.SetEvictor(fn) }

// addrBase is where a device's address range starts: above the physical
// memory of any card, so no address is ever mistaken for a placement.
const addrBase cuda.DevPtr = 1 << 40

// devBuf is one live allocation: its address and rounded size, and while it
// is on the card its placement (0 while off it) and, on a functional
// device, its backing store: size bytes, or from caller memory as few as
// the allocation was asked for (nil while an unbacked one awaits Rebind).
type devBuf struct {
	addr  cuda.DevPtr
	size  int64
	place cuda.DevPtr
	data  []byte
}

// find returns the index of the allocation whose address is p.
func (d *Device) find(p cuda.DevPtr) (int, bool) {
	i := sort.Search(len(d.bufs), func(i int) bool { return d.bufs[i].addr >= p })
	return i, i < len(d.bufs) && d.bufs[i].addr == p
}

// Bytes implements cuda.Memory: a mutable view of device memory. In
// timing-only mode it returns nil. The range must lie within a single
// allocation that is on the card.
func (d *Device) Bytes(p cuda.DevPtr, n int64) []byte {
	if !d.functional {
		return nil
	}
	if p == 0 || n < 0 {
		panic(fmt.Sprintf("gpusim: device memory access ptr=%#x n=%d", uint64(p), n))
	}
	i := sort.Search(len(d.bufs), func(i int) bool { return d.bufs[i].addr > p }) - 1
	if i >= 0 {
		b := d.bufs[i]
		off := int64(p - b.addr)
		if off+n <= b.size {
			if b.place == 0 {
				panic(fmt.Sprintf("gpusim: device memory access to swapped-out allocation %#x: ptr=%#x n=%d", uint64(b.addr), uint64(p), n))
			}
			if off+n > int64(len(b.data)) {
				panic(fmt.Sprintf("gpusim: device memory access past the %d backed bytes of allocation %#x: ptr=%#x n=%d", len(b.data), uint64(b.addr), uint64(p), n))
			}
			return b.data[off : off+n : off+n]
		}
	}
	panic(fmt.Sprintf("gpusim: device memory access outside any allocation: ptr=%#x n=%d", uint64(p), n))
}

func (d *Device) emit(lane, label string, start, end sim.Time) {
	if d.tracer != nil {
		d.tracer.Add(lane, label, start, end)
	}
}

// tracing reports whether emit would record anything; call sites that
// format labels check it first so an untraced run never pays the
// fmt.Sprintf (it is the only allocation on several hot paths).
func (d *Device) tracing() bool { return d.tracer != nil }

// Context is a GPU context. Every process in the non-virtualized baseline
// owns one; the virtualization manager owns exactly one for everybody.
type Context struct {
	dev       *Device
	id        int
	destroyed bool

	// SwitchCost overrides the architecture's context-switch cost when
	// nonzero; the paper's Table II measures different switch costs for
	// different applications (context footprints differ).
	SwitchCost sim.Duration
}

// CreateContext initializes the device (first call only) and creates a
// context, paying the driver costs on the calling process's virtual time.
// Creation is serialized on the driver lock, so N processes initializing
// simultaneously pay DeviceInitCost + N x ContextCreateCost in total, which
// is the paper's Tinit.
func (d *Device) CreateContext(p *sim.Proc) *Context {
	start := p.Now()
	d.driver.Acquire(p, 1)
	defer d.driver.Release(1)
	if !d.initialized {
		p.Sleep(d.arch.DeviceInitCost)
		d.initialized = true
	}
	p.Sleep(d.arch.ContextCreateCost)
	d.nextCtxID++
	c := &Context{dev: d, id: d.nextCtxID}
	d.emit("driver", fmt.Sprintf("ctx%d create", c.id), start, p.Now())
	return c
}

// Destroy marks the context dead; further operations panic.
func (c *Context) Destroy() { c.destroyed = true }

func (c *Context) mustLive() {
	if c.destroyed {
		panic(fmt.Sprintf("gpusim: use of destroyed context %d", c.id))
	}
}

// switchCost returns the cost of switching the device to this context.
func (c *Context) switchCost() sim.Duration {
	if c.SwitchCost != 0 {
		return c.SwitchCost
	}
	return c.dev.arch.ContextSwitchCost
}

// Acquire makes this context current on the device, blocking the process
// until the device is free (strict FIFO with other contexts). If the
// device was last owned by a different context, the context-switch cost is
// paid on this process's virtual time. Acquire/Release bracket a unit of
// work that must not interleave with other contexts — e.g. one full
// send/compute/retrieve cycle in the non-virtualized baseline, or the
// whole lifetime of the virtualization manager.
func (c *Context) Acquire(p *sim.Proc) {
	c.mustLive()
	d := c.dev
	if d.arbHolder {
		grant := d.env.NewEvent()
		d.arbQueue = append(d.arbQueue, grant)
		p.Wait(grant)
	} else {
		d.arbHolder = true
	}
	if d.arbOwner != nil && d.arbOwner != c {
		start := p.Now()
		p.Sleep(c.switchCost())
		d.ContextSwitches++
		d.emit("driver", fmt.Sprintf("switch ctx%d->ctx%d", d.arbOwner.id, c.id), start, p.Now())
	}
	d.arbOwner = c
}

// Release lets the next queued context acquire the device.
func (c *Context) Release() {
	d := c.dev
	if !d.arbHolder || d.arbOwner != c {
		panic("gpusim: Release of device not held by this context")
	}
	if len(d.arbQueue) == 0 {
		d.arbHolder = false
		return
	}
	next := d.arbQueue[0]
	d.arbQueue = d.arbQueue[1:]
	next.Fire(nil)
}

// Malloc allocates device memory for this context: a fresh address, placed
// on the card and, in functional mode, zeroed. On a device with a memory or
// fatal fault it fails with a *FaultError.
func (c *Context) Malloc(n int64) (cuda.DevPtr, error) { return c.malloc(n, true) }

// MallocUnbacked is Malloc without the memory: the allocation takes its
// place on the card, and its bytes are caller memory that Rebind (or a
// SwapIn) attaches later; until then a functional access to it panics.
func (c *Context) MallocUnbacked(n int64) (cuda.DevPtr, error) { return c.malloc(n, false) }

func (c *Context) malloc(n int64, fresh bool) (cuda.DevPtr, error) {
	ptr, err := c.Address(n)
	if err != nil {
		return 0, err
	}
	if err := c.place(ptr, nil, fresh); err != nil {
		_ = c.Free(ptr) // the address, which is off the card
		return 0, err
	}
	return ptr, nil
}

// Rebind puts the allocation at ptr, which must be on the card, on caller
// memory data without a transfer, a copy or a charge; what it held before is
// dropped. gpusim keeps data no longer than the allocation stays on the card.
func (c *Context) Rebind(ptr cuda.DevPtr, data []byte) error {
	c.mustLive()
	d := c.dev
	i, ok := d.find(ptr)
	if !ok || d.bufs[i].place == 0 {
		return fmt.Errorf("gpusim: rebind of device pointer %#x, which is not an allocation on the card", uint64(ptr))
	}
	if err := d.fits(data, d.bufs[i].size); err != nil {
		return err
	}
	d.bufs[i].data = data
	return nil
}

// fits checks that data may back an allocation of size bytes: it is absent,
// or it fills the allocation up to the allocator's rounding (a caller's
// buffer holds only the bytes asked for).
func (d *Device) fits(data []byte, size int64) error {
	if data != nil && d.alloc.RoundUp(int64(len(data))) != size {
		return fmt.Errorf("gpusim: %d bytes of backing for a %d-byte allocation", len(data), size)
	}
	return nil
}

// Address allocates n bytes off the card: an address kernels can be built
// against, which SwapIn places. Until then it holds no device memory.
func (c *Context) Address(n int64) (cuda.DevPtr, error) {
	c.mustLive()
	if n <= 0 {
		return 0, fmt.Errorf("gpusim: alloc of %d bytes", n)
	}
	d := c.dev
	ptr := d.nextAddr
	size := d.alloc.RoundUp(n)
	d.nextAddr += cuda.DevPtr(size)
	d.bufs = append(d.bufs, devBuf{addr: ptr, size: size})
	return ptr, nil
}

// place puts the off-card allocation at ptr on the card, backed by data
// (SwapIn), or when data is nil by fresh zeroed memory (newBacking) if
// fresh, else by nothing yet (MallocUnbacked). Device memory is never
// attached short: data that does not fill the allocation is an error.
func (c *Context) place(ptr cuda.DevPtr, data []byte, fresh bool) error {
	c.mustLive()
	d := c.dev
	if err := d.faultFor(XidMemory, XidFatal); err != nil {
		return err
	}
	i, ok := d.find(ptr)
	if !ok || d.bufs[i].place != 0 {
		return fmt.Errorf("gpusim: swap-in of device pointer %#x, which is not an allocation off the card", uint64(ptr))
	}
	size := d.bufs[i].size
	if err := d.fits(data, size); err != nil {
		return err
	}
	// The evictor may sleep in here, and other processes may free or place
	// allocations meanwhile: look ptr up again once it returns.
	at, err := d.alloc.Alloc(size)
	if err != nil {
		return err
	}
	if i, ok = d.find(ptr); !ok || d.bufs[i].place != 0 {
		_ = d.alloc.Free(at)
		return fmt.Errorf("gpusim: device pointer %#x was freed or placed while it was being placed", uint64(ptr))
	}
	if d.functional && data == nil && fresh {
		data = newBacking(size)
	}
	d.bufs[i].place, d.bufs[i].data = at, data
	return nil
}

// Unplace takes the allocation at ptr off the card without a transfer and
// returns its backing store (nil on a timing-only device): the address
// stays the caller's, to place again with SwapIn. A restore that fails
// part-way uses it to give back what it placed.
func (c *Context) Unplace(ptr cuda.DevPtr) ([]byte, error) {
	c.mustLive()
	d := c.dev
	i, ok := d.find(ptr)
	if !ok || d.bufs[i].place == 0 {
		return nil, fmt.Errorf("gpusim: device pointer %#x is not an allocation on the card", uint64(ptr))
	}
	b := &d.bufs[i]
	if err := d.alloc.Free(b.place); err != nil {
		return nil, err
	}
	data := b.data
	b.place, b.data = 0, nil
	return data, nil
}

// MustMalloc is Malloc that panics on out-of-memory.
func (c *Context) MustMalloc(n int64) cuda.DevPtr {
	p, err := c.Malloc(n)
	if err != nil {
		panic(err)
	}
	return p
}

// SizeOf returns the rounded size of a live allocation, on the card or off.
func (c *Context) SizeOf(p cuda.DevPtr) (int64, bool) {
	i, ok := c.dev.find(p)
	if !ok {
		return 0, false
	}
	return c.dev.bufs[i].size, true
}

// Free releases device memory: the allocation's placement, if it is on the
// card, and its address, which is never handed out again.
func (c *Context) Free(p cuda.DevPtr) error {
	c.mustLive()
	i, ok := c.dev.find(p)
	if !ok {
		return fmt.Errorf("gpusim: free of unallocated device pointer %#x", uint64(p))
	}
	if c.dev.bufs[i].place != 0 {
		if _, err := c.Unplace(p); err != nil {
			return err
		}
	}
	c.dev.bufs = append(c.dev.bufs[:i], c.dev.bufs[i+1:]...)
	return nil
}

// HostBuffer is host memory used as a source or destination of transfers.
// Pinned buffers transfer faster and are required for async overlap on
// real hardware; the simulator only differentiates bandwidth.
type HostBuffer struct {
	data   []byte
	pinned bool
}

// AllocHost allocates a host buffer. In timing-only mode no memory is
// reserved.
func (d *Device) AllocHost(n int64, pinned bool) *HostBuffer {
	if n <= 0 {
		panic("gpusim: AllocHost of non-positive size")
	}
	b := &HostBuffer{pinned: pinned}
	if d.functional {
		b.data = make([]byte, n)
	}
	return b
}

// WrapHost wraps an existing host slice as a (pageable or pinned) buffer.
func WrapHost(data []byte, pinned bool) *HostBuffer {
	return &HostBuffer{data: data, pinned: pinned}
}

// Data returns the backing slice (nil in timing-only mode).
func (b *HostBuffer) Data() []byte { return b.data }

// memcpyH2D performs a host-to-device copy on the calling process,
// occupying the H2D engine for the full transfer (transfers in one
// direction never overlap each other, per the paper's model).
func (c *Context) memcpyH2D(p *sim.Proc, dst cuda.DevPtr, src *HostBuffer, off, n int64) {
	c.mustLive()
	if n <= 0 {
		return
	}
	d := c.dev
	if d.exclusive != nil {
		d.exclusive.Acquire(p, 1)
		defer d.exclusive.Release(1)
	}
	d.h2dEngine.Acquire(p, 1)
	start := p.Now()
	p.Sleep(d.arch.TransferTime(n, true, src.pinned))
	if d.functional && src.data != nil {
		move(d.Bytes(dst, n), src.data[off:off+n])
	}
	d.h2dEngine.Release(1)
	if d.tracer != nil {
		d.emit("h2d", fmt.Sprintf("ctx%d H2D %dB", c.id, n), start, p.Now())
	}
}

// memcpyD2H performs a device-to-host copy on the calling process.
func (c *Context) memcpyD2H(p *sim.Proc, dst *HostBuffer, off int64, src cuda.DevPtr, n int64) {
	c.mustLive()
	if n <= 0 {
		return
	}
	d := c.dev
	if d.exclusive != nil {
		d.exclusive.Acquire(p, 1)
		defer d.exclusive.Release(1)
	}
	d.d2hEngine.Acquire(p, 1)
	start := p.Now()
	p.Sleep(d.arch.TransferTime(n, false, dst.pinned))
	if d.functional && dst.data != nil {
		move(dst.data[off:off+n], d.Bytes(src, n))
	}
	d.d2hEngine.Release(1)
	if d.tracer != nil {
		d.emit("d2h", fmt.Sprintf("ctx%d D2H %dB", c.id, n), start, p.Now())
	}
}

// move is a transfer's host memmove: none when device and host range are
// the same memory (an allocation on caller memory, Rebind).
func move(dst, src []byte) {
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
}

// MemcpyH2D is the synchronous host-to-device copy.
func (c *Context) MemcpyH2D(p *sim.Proc, dst cuda.DevPtr, src *HostBuffer, n int64) {
	c.memcpyH2D(p, dst, src, 0, n)
}

// MemcpyD2H is the synchronous device-to-host copy.
func (c *Context) MemcpyD2H(p *sim.Proc, dst *HostBuffer, src cuda.DevPtr, n int64) {
	c.memcpyD2H(p, dst, 0, src, n)
}

// swapHost is the host end of a swap transfer: pinned, so the copy engines
// charge the pinned PCIe rate, and without data, so they move no bytes —
// the bytes change owner instead.
var swapHost = &HostBuffer{pinned: true}

// SwapOut evacuates the allocation at ptr to the host: the full
// device-to-host transfer is charged on p exactly as a pinned MemcpyD2H of
// the allocation would be, then its placement is taken off the card and its
// backing store — already host memory — is returned as the evacuated
// contents (nil on a timing-only device) with its size. The caller owns the
// slice from here on, and the address stays the caller's to SwapIn; whoever
// Mallocs the freed placement gets a different address and fresh zeroed
// memory.
func (c *Context) SwapOut(p *sim.Proc, ptr cuda.DevPtr) ([]byte, int64, error) {
	i, ok := c.dev.find(ptr)
	if !ok || c.dev.bufs[i].place == 0 {
		return nil, 0, fmt.Errorf("gpusim: swap-out of device pointer %#x, which is not an allocation on the card", uint64(ptr))
	}
	size := c.dev.bufs[i].size
	c.memcpyD2H(p, swapHost, 0, ptr, size)
	// The transfer slept: if another swap-out or a Free won, this one fails.
	data, err := c.Unplace(ptr)
	if err != nil {
		return nil, 0, err
	}
	return data, size, nil
}

// SwapIn is SwapOut's inverse: it places the off-card allocation at ptr
// back on the card like Malloc would (evictor and fault checks included)
// with data as its backing store — the caller must not touch data while the
// allocation is on the card, unless it shares it with the device on purpose
// (MallocUnbacked) — and charges the full host-to-device transfer
// on p exactly as a pinned MemcpyH2D would. With nil data (a timing-only
// snapshot) the allocation is zeroed like any other.
func (c *Context) SwapIn(p *sim.Proc, ptr cuda.DevPtr, data []byte) error {
	if err := c.place(ptr, data, true); err != nil {
		return err
	}
	size, _ := c.SizeOf(ptr)
	c.memcpyH2D(p, ptr, swapHost, 0, size)
	return nil
}

// MaxLaunchWeight bounds per-launch weights so the weight-class metric
// label set stays small and integer arithmetic in the scheduler cannot
// overflow.
const MaxLaunchWeight = 1024

// Launch runs a kernel synchronously on the calling process and returns
// once it has completed. weight is the kernel's share of SM issue
// throughput relative to co-resident kernels, and its precedence for
// window admission and wave-boundary preemption: 0 or 1 is the default
// (all pre-QoS behavior, bit-identical), and values are clamped to
// [1, MaxLaunchWeight]. On a device with a hang or fatal fault the launch
// fails at once with a *FaultError; an injector installed via
// SetFaultInjector is ticked first, so a launch may itself trip the fault
// it then fails with. A kernel such a fault aborts in flight fails with the
// fault's *FaultError too. On a functional device, a kernel whose body
// panics fails with the panic as an error that is no *FaultError.
func (c *Context) Launch(p *sim.Proc, k *cuda.Kernel, weight int) error {
	ls, err := c.dispatch(p, k, weight)
	if err != nil {
		return err
	}
	v := p.Wait(ls.done)
	c.dev.sched.recycle(ls)
	if err, ok := v.(error); ok {
		return err
	}
	return nil
}

// dispatch is Launch up to the wait: it validates k, ticks the injector,
// checks faults, pays the launch overhead and hands the kernel to the SM
// scheduler, returning its launch record.
func (c *Context) dispatch(p *sim.Proc, k *cuda.Kernel, weight int) (*launchState, error) {
	c.mustLive()
	if err := k.Validate(c.dev.arch); err != nil {
		return nil, err
	}
	c.dev.injector.tick(c.dev)
	if err := c.dev.faultFor(XidHang, XidFatal); err != nil {
		return nil, err
	}
	w := weight
	if w < 1 {
		w = 1
	} else if w > MaxLaunchWeight {
		w = MaxLaunchWeight
	}
	d := c.dev
	p.Sleep(d.arch.KernelLaunchOverhead)
	if d.exclusive != nil {
		// Architectures without copy/compute overlap serialize the kernel
		// against transfers: it holds the exclusive engine until the
		// scheduler completes it (smScheduler.complete).
		d.exclusive.Acquire(p, 1)
	}
	return d.sched.launch(c, k, w), nil
}
