package gpusim

import (
	"strings"
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/sim"
)

// TestCallerMemoryBacksAllocation pins the caller-memory contract: an
// unbacked allocation holds its place on the card but no bytes until Rebind
// puts it on a caller's buffer — one that fills it up to the allocator's
// rounding, so a 1000-byte staging buffer backs a 1024-byte allocation and
// a 100-byte one does not. The buffer IS the device memory, a transfer
// from or to that same buffer charges exactly what a copy between two
// buffers does and moves nothing, and a swap hands the buffer out and back
// without gpusim keeping it.
func TestCallerMemoryBacksAllocation(t *testing.T) {
	env, dev := newTestDevice(t, true)
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		ptr, err := c.MallocUnbacked(1000)
		if err != nil {
			t.Error(err)
			return
		}
		if dev.MemInUse() != 1024 {
			t.Errorf("an unbacked allocation holds %d bytes of the card, want 1024", dev.MemInUse())
		}
		if !panics(func() { dev.Bytes(ptr, 1) }) {
			t.Error("an unbacked allocation was readable before Rebind")
		}
		if err := c.Rebind(ptr, make([]byte, 100)); err == nil {
			t.Error("Rebind put a 1000-byte allocation on 100 bytes")
		}
		staging := make([]byte, 1000)
		if err := c.Rebind(ptr, staging); err != nil {
			t.Error(err)
			return
		}
		if got := dev.Bytes(ptr, 1000); &got[0] != &staging[0] {
			t.Error("device memory is not the caller's buffer")
		}
		if !panics(func() { dev.Bytes(ptr, 1024) }) {
			t.Error("an access past the caller's 1000 bytes succeeded")
		}

		// Same memory: the transfer's time, none of its bytes.
		copy(staging, "staged")
		other := dev.AllocHost(1000, true)
		start := p.Now()
		c.MemcpyH2D(p, ptr, other, 1000)
		apart := p.Now() - start
		if string(staging[:6]) != "\x00\x00\x00\x00\x00\x00" {
			t.Error("H2D from another buffer did not copy")
		}
		copy(staging, "staged")
		start = p.Now()
		c.MemcpyH2D(p, ptr, WrapHost(staging, true), 1000)
		c.MemcpyD2H(p, WrapHost(staging, true), ptr, 1000)
		if d := p.Now() - start; d != apart+sim.Time(dev.Arch().TransferTime(1000, false, true)) {
			t.Errorf("same-memory H2D+D2H took %v, want one H2D (%v) and one D2H", d, apart)
		}
		if string(staging[:6]) != "staged" {
			t.Errorf("same-memory transfers: staging %q", staging[:6])
		}

		data, size, err := c.SwapOut(p, ptr)
		if err != nil || size != 1024 || &data[0] != &staging[0] {
			t.Errorf("SwapOut = %d bytes (the caller's: %v), size %d, err %v", len(data), len(data) > 0 && &data[0] == &staging[0], size, err)
			return
		}
		if err := c.SwapIn(p, ptr, staging); err != nil {
			t.Error(err)
			return
		}
		if got := dev.Bytes(ptr, 6); string(got) != "staged" {
			t.Errorf("swapped back in: %q", got)
		}
		if err := c.Free(ptr); err != nil {
			t.Error(err)
		}
	})
	run(t, env)
}

// TestKernelPanicFailsItsLaunch: a functional body that panics — here
// indexing past its buffer, as a kernel does on keys a client staged out
// of range — fails its launch with an error naming the kernel, no
// *FaultError, and leaves the device healthy for the next launch.
func TestKernelPanicFailsItsLaunch(t *testing.T) {
	env, dev := newTestDevice(t, true)
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		buf := c.MustMalloc(256)
		wild := &cuda.Kernel{Name: "wild", Grid: cuda.Dim(4), Block: cuda.Dim(32), CyclesPerThread: 1,
			Func: func(bc *cuda.BlockCtx) { cuda.Int32s(bc.Mem, buf, 1)[bc.BlockIdx.X*1000]++ }}
		err := c.Launch(p, wild, 1)
		if _, fault := IsFault(err); err == nil || fault || !strings.Contains(err.Error(), `kernel "wild"`) {
			t.Errorf("launch of a panicking body: %v, want a non-fault error naming it", err)
		}
		tame := &cuda.Kernel{Name: "tame", Grid: cuda.Dim(1), Block: cuda.Dim(32), CyclesPerThread: 1,
			Func: func(bc *cuda.BlockCtx) { cuda.Int32s(bc.Mem, buf, 1)[0] = 7 }}
		if err := c.Launch(p, tame, 1); err != nil || dev.Bytes(buf, 1)[0] != 7 {
			t.Errorf("the next launch: %v", err)
		}
	})
	run(t, env)
}
