package gpusim

import (
	"math"
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/sim"
)

func newTestDevice(t *testing.T, functional bool) (*sim.Env, *Device) {
	t.Helper()
	env := sim.NewEnv()
	arch := fermi.TeslaC2070()
	if functional {
		arch.MemBytes = 64 << 20 // keep functional backing small in tests
	}
	dev, err := New(env, Config{Arch: arch, Functional: functional})
	if err != nil {
		t.Fatal(err)
	}
	return env, dev
}

func run(t *testing.T, env *sim.Env) {
	t.Helper()
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsInvalidArch(t *testing.T) {
	env := sim.NewEnv()
	arch := fermi.TeslaC2070()
	arch.SMs = 0
	if _, err := New(env, Config{Arch: arch}); err == nil {
		t.Fatal("New accepted an invalid arch")
	}
}

func TestContextCreationCosts(t *testing.T) {
	env, dev := newTestDevice(t, false)
	arch := dev.Arch()
	var finished []sim.Time
	for i := 0; i < 8; i++ {
		env.Go(func(p *sim.Proc) {
			dev.CreateContext(p)
			finished = append(finished, p.Now())
		})
	}
	run(t, env)
	// Serialized on the driver lock: total Tinit = DeviceInit + 8 x Create.
	want := sim.Time(arch.DeviceInitCost + 8*arch.ContextCreateCost)
	last := finished[len(finished)-1]
	if last != want {
		t.Fatalf("total init = %v, want %v (paper Tinit)", last, want)
	}
	// With the calibrated C2070 this is the paper's ~1519 ms.
	if ms := last.Milliseconds(); math.Abs(ms-1519) > 1 {
		t.Fatalf("Tinit = %.3f ms, want ~1519 ms (Table II)", ms)
	}
}

func TestContextSwitchCostsAndCounting(t *testing.T) {
	env, dev := newTestDevice(t, false)
	var c1, c2 *Context
	env.Go(func(p *sim.Proc) {
		c1 = dev.CreateContext(p)
		c2 = dev.CreateContext(p)

		base := p.Now()
		c1.Acquire(p) // first-ever acquire: no previous owner, no switch
		if got := p.Now().Sub(base); got != 0 {
			t.Errorf("first acquire cost %v, want 0", got)
		}
		c1.Release()

		base = p.Now()
		c1.Acquire(p) // same owner: free
		if got := p.Now().Sub(base); got != 0 {
			t.Errorf("same-context acquire cost %v, want 0", got)
		}
		c1.Release()

		base = p.Now()
		c2.Acquire(p) // owner change: pays switch cost
		if got := p.Now().Sub(base); got != dev.Arch().ContextSwitchCost {
			t.Errorf("switch cost %v, want %v", got, dev.Arch().ContextSwitchCost)
		}
		c2.Release()
	})
	run(t, env)
	if dev.ContextSwitches != 1 {
		t.Fatalf("ContextSwitches = %d, want 1", dev.ContextSwitches)
	}
}

func TestContextSwitchOverride(t *testing.T) {
	env, dev := newTestDevice(t, false)
	env.Go(func(p *sim.Proc) {
		c1 := dev.CreateContext(p)
		c2 := dev.CreateContext(p)
		c2.SwitchCost = 220 * sim.Millisecond
		c1.Acquire(p)
		c1.Release()
		base := p.Now()
		c2.Acquire(p)
		if got := p.Now().Sub(base); got != 220*sim.Millisecond {
			t.Errorf("override switch cost %v, want 220ms", got)
		}
		c2.Release()
	})
	run(t, env)
}

func TestContextArbiterFIFOSerializesCycles(t *testing.T) {
	// Three processes, three contexts, each holding the device for 10 ms:
	// cycles serialize with one switch between consecutive holders.
	env, dev := newTestDevice(t, false)
	var done []sim.Time
	var ctxs []*Context
	env.Go(func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			ctxs = append(ctxs, dev.CreateContext(p))
		}
		for i := 0; i < 3; i++ {
			c := ctxs[i]
			env.Go(func(p *sim.Proc) {
				c.Acquire(p)
				p.Sleep(10 * sim.Millisecond)
				c.Release()
				done = append(done, p.Now())
			})
		}
	})
	run(t, env)
	sw := dev.Arch().ContextSwitchCost
	t0 := sim.Time(dev.Arch().DeviceInitCost + 3*dev.Arch().ContextCreateCost)
	want := []sim.Time{
		t0.Add(10 * sim.Millisecond),
		t0.Add(10*sim.Millisecond + sw + 10*sim.Millisecond),
		t0.Add(10*sim.Millisecond + sw + 10*sim.Millisecond + sw + 10*sim.Millisecond),
	}
	if len(done) != 3 {
		t.Fatalf("%d completions", len(done))
	}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion %d at %v, want %v", i, done[i], want[i])
		}
	}
	if dev.ContextSwitches != 2 {
		t.Fatalf("ContextSwitches = %d, want 2", dev.ContextSwitches)
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	env, dev := newTestDevice(t, false)
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		defer func() {
			if recover() == nil {
				t.Error("expected panic on unmatched Release")
			}
		}()
		c.Release()
	})
	run(t, env)
}

func TestDestroyedContextPanics(t *testing.T) {
	env, dev := newTestDevice(t, false)
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		c.Destroy()
		defer func() {
			if recover() == nil {
				t.Error("expected panic on use after Destroy")
			}
		}()
		c.Acquire(p)
	})
	run(t, env)
}

func TestMemcpyTiming(t *testing.T) {
	env, dev := newTestDevice(t, false)
	arch := dev.Arch()
	var n int64 = 10 << 20
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		dst := c.MustMalloc(n)
		host := dev.AllocHost(n, false)
		base := p.Now()
		c.MemcpyH2D(p, dst, host, n)
		if got, want := p.Now().Sub(base), arch.TransferTime(n, true, false); got != want {
			t.Errorf("H2D pageable took %v, want %v", got, want)
		}
		pinnedHost := dev.AllocHost(n, true)
		base = p.Now()
		c.MemcpyH2D(p, dst, pinnedHost, n)
		if got, want := p.Now().Sub(base), arch.TransferTime(n, true, true); got != want {
			t.Errorf("H2D pinned took %v, want %v", got, want)
		}
		base = p.Now()
		c.MemcpyD2H(p, host, dst, n)
		if got, want := p.Now().Sub(base), arch.TransferTime(n, false, false); got != want {
			t.Errorf("D2H took %v, want %v", got, want)
		}
	})
	run(t, env)
}

func TestSameDirectionTransfersSerialize(t *testing.T) {
	env, dev := newTestDevice(t, false)
	arch := dev.Arch()
	var n int64 = 8 << 20
	one := arch.TransferTime(n, true, false)
	var finish []sim.Time
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		dst1, dst2 := c.MustMalloc(n), c.MustMalloc(n)
		h := dev.AllocHost(n, false)
		t0 := p.Now()
		for _, dst := range []cuda.DevPtr{dst1, dst2} {
			dst := dst
			env.Go(func(p *sim.Proc) {
				c.MemcpyH2D(p, dst, h, n)
				finish = append(finish, p.Now().Add(-sim.Duration(t0)))
			})
		}
	})
	run(t, env)
	if finish[0] != sim.Time(one) || finish[1] != sim.Time(2*one) {
		t.Fatalf("finishes = %v, want [%v %v] (full-bandwidth FIFO)", finish, one, 2*one)
	}
}

func TestOppositeDirectionsOverlapWithTwoEngines(t *testing.T) {
	env, dev := newTestDevice(t, false)
	arch := dev.Arch()
	var n int64 = 8 << 20
	var finish []sim.Time
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		d := c.MustMalloc(n)
		h := dev.AllocHost(n, false)
		env.Go(func(p *sim.Proc) {
			c.MemcpyH2D(p, d, h, n)
			finish = append(finish, p.Now())
		})
		env.Go(func(p *sim.Proc) {
			c.MemcpyD2H(p, h, d, n)
			finish = append(finish, p.Now())
		})
	})
	run(t, env)
	setup := sim.Time(arch.DeviceInitCost + arch.ContextCreateCost)
	// D2H (3.0 GB/s) finishes slightly before H2D (2.95 GB/s); both overlap.
	wantD2H := setup.Add(arch.TransferTime(n, false, false))
	wantH2D := setup.Add(arch.TransferTime(n, true, false))
	if finish[0] != wantD2H {
		t.Fatalf("D2H finished at %v, want %v", finish[0], wantD2H)
	}
	if finish[1] != wantH2D {
		t.Fatalf("H2D finished at %v, want %v (should overlap D2H)", finish[1], wantH2D)
	}
}

func TestSingleCopyEngineSerializesDirections(t *testing.T) {
	env := sim.NewEnv()
	arch := fermi.TeslaC2070()
	arch.CopyEngines = 1 // a GeForce GTX 480's one copy engine
	dev := MustNew(env, Config{Arch: arch})
	var n int64 = 8 << 20
	var finishes []sim.Time
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		d := c.MustMalloc(n)
		h := dev.AllocHost(n, false)
		t0 := p.Now()
		env.Go(func(p *sim.Proc) {
			c.MemcpyH2D(p, d, h, n)
			finishes = append(finishes, p.Now().Add(-sim.Duration(t0)))
		})
		env.Go(func(p *sim.Proc) {
			c.MemcpyD2H(p, h, d, n)
			finishes = append(finishes, p.Now().Add(-sim.Duration(t0)))
		})
	})
	run(t, env)
	h2d := arch.TransferTime(n, true, false)
	d2h := arch.TransferTime(n, false, false)
	if finishes[0] != sim.Time(h2d) {
		t.Fatalf("first = %v, want %v", finishes[0], h2d)
	}
	if finishes[1] != sim.Time(h2d+d2h) {
		t.Fatalf("second = %v, want %v (serialized on one engine)", finishes[1], h2d+d2h)
	}
}

func TestFunctionalMemcpyMovesBytes(t *testing.T) {
	env, dev := newTestDevice(t, true)
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		d := c.MustMalloc(16)
		src := dev.AllocHost(16, false)
		for i := range src.Data() {
			src.Data()[i] = byte(i * 3)
		}
		c.MemcpyH2D(p, d, src, 16)
		dst := dev.AllocHost(16, true)
		c.MemcpyD2H(p, dst, d, 16)
		for i, b := range dst.Data() {
			if b != byte(i*3) {
				t.Errorf("byte %d = %d, want %d", i, b, i*3)
			}
		}
	})
	run(t, env)
}

func TestTimingOnlyModeHasNoBacking(t *testing.T) {
	env, dev := newTestDevice(t, false)
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		d := c.MustMalloc(16)
		if dev.Bytes(d, 16) != nil {
			t.Error("timing-only device returned backing memory")
		}
		h := dev.AllocHost(16, false)
		if h.Data() != nil {
			t.Error("timing-only host buffer has data")
		}
		// Copies must still advance time without touching memory.
		base := p.Now()
		c.MemcpyH2D(p, d, h, 16)
		if p.Now() == base {
			t.Error("timing-only copy took no time")
		}
	})
	run(t, env)
}

func TestDeviceBytesOutOfRangePanics(t *testing.T) {
	env, dev := newTestDevice(t, true)
	env.Go(func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		dev.Bytes(cuda.DevPtr(dev.Arch().MemBytes-4), 16)
	})
	run(t, env)
}

func TestHostBufferWrap(t *testing.T) {
	data := []byte{1, 2, 3}
	b := WrapHost(data, true)
	if len(b.Data()) != 3 || !b.pinned || &b.Data()[0] != &data[0] {
		t.Fatal("WrapHost did not alias the slice")
	}
}

func TestContextFreeAndSizeOf(t *testing.T) {
	env, dev := newTestDevice(t, true)
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		ptr := c.MustMalloc(1000)
		size, ok := c.SizeOf(ptr)
		if !ok || size != 1024 {
			t.Errorf("SizeOf = %d,%v, want 1024 (rounded)", size, ok)
		}
		// Functional backing is attached and readable.
		b := dev.Bytes(ptr, 1000)
		if len(b) != 1000 {
			t.Errorf("Bytes len = %d", len(b))
		}
		b[0] = 42
		if err := c.Free(ptr); err != nil {
			t.Error(err)
		}
		if _, ok := c.SizeOf(ptr); ok {
			t.Error("SizeOf found a freed allocation")
		}
		// Backing is detached: access panics.
		defer func() {
			if recover() == nil {
				t.Error("Bytes on freed allocation did not panic")
			}
		}()
		dev.Bytes(ptr, 4)
	})
	run(t, env)
	if dev.MemInUse() != 0 {
		t.Fatalf("MemInUse = %d", dev.MemInUse())
	}
	if !dev.Functional() {
		t.Fatal("Functional() = false on functional device")
	}
	if dev.Env() == nil {
		t.Fatal("Env() nil")
	}
}

func TestFreeUnknownPointerErrors(t *testing.T) {
	env, dev := newTestDevice(t, false)
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		if err := c.Free(cuda.DevPtr(512)); err == nil {
			t.Error("Free of unknown pointer succeeded")
		}
	})
	run(t, env)
}

// placement returns where the allocation at ptr sits on the card (0: off
// it).
func placement(dev *Device, ptr cuda.DevPtr) cuda.DevPtr {
	if i, ok := dev.find(ptr); ok {
		return dev.bufs[i].place
	}
	return 0
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// TestSwapTransfersOwnershipAndIsolates pins the swap contract: the
// evacuated contents are the allocation's own backing store, whoever
// allocates the freed placement meanwhile gets another address, reads
// zeros and cannot reach them (MASK's isolation rule) while the evicted
// address faults, a swap-in of that address elsewhere on the card returns
// them untouched, and the clock reads exactly what
// MemcpyD2H+Free and Malloc+MemcpyH2D of the same size charge.
func TestSwapTransfersOwnershipAndIsolates(t *testing.T) {
	const n = 1000 // rounds up to 1024
	env, dev := newTestDevice(t, true)
	var outCost, inCost sim.Duration
	env.Go(func(p *sim.Proc) {
		tenant := dev.CreateContext(p)
		other := dev.CreateContext(p)
		ptr := tenant.MustMalloc(n)
		mem := dev.Bytes(ptr, n)
		for i := range mem {
			mem[i] = byte(i%251 + 1)
		}
		freed := placement(dev, ptr)

		start := p.Now()
		snap, size, err := tenant.SwapOut(p, ptr)
		outCost = p.Now().Sub(start)
		if err != nil || size != 1024 || int64(len(snap)) != size {
			t.Errorf("SwapOut = %d bytes, size %d, err %v; want the 1024-byte allocation", len(snap), size, err)
			return
		}
		if &snap[0] != &mem[0] {
			t.Error("SwapOut copied: the snapshot is not the allocation's backing store")
		}
		if dev.MemInUse() != 0 {
			t.Errorf("MemInUse = %d after swap-out, want 0", dev.MemInUse())
		}
		if !panics(func() { dev.Bytes(ptr, n) }) {
			t.Error("Bytes on a swapped-out address did not fault")
		}

		// Another tenant takes the freed placement, under an address of its own.
		theirs := other.MustMalloc(n)
		if theirs == ptr {
			t.Errorf("Malloc handed out the swapped-out address %#x again", uint64(ptr))
			return
		}
		if placement(dev, theirs) != freed {
			t.Errorf("first-fit placed the new allocation at %#x, want the freed %#x", uint64(placement(dev, theirs)), uint64(freed))
			return
		}
		for i, b := range dev.Bytes(theirs, size) {
			if b != 0 {
				t.Errorf("fresh allocation byte %d = %#x: it sees the evicted tenant's memory", i, b)
				return
			}
		}
		for i := range dev.Bytes(theirs, size) {
			dev.Bytes(theirs, size)[i] = 0xEE
		}
		if !panics(func() { dev.Bytes(ptr, n) }) {
			t.Error("the stale address reaches the new tenant's allocation")
		}

		start = p.Now()
		err = tenant.SwapIn(p, ptr, snap)
		inCost = p.Now().Sub(start)
		if err != nil {
			t.Error(err)
			return
		}
		if at := placement(dev, ptr); at == 0 || at == freed {
			t.Errorf("swap-in placed the address at %#x, want a free placement other than %#x", uint64(at), uint64(freed))
			return
		}
		got := dev.Bytes(ptr, n)
		if &got[0] != &snap[0] {
			t.Error("SwapIn copied: the allocation is not backed by the snapshot")
		}
		for i, b := range got {
			if b != byte(i%251+1) {
				t.Errorf("restored byte %d = %#x, want %#x", i, b, byte(i%251+1))
				return
			}
		}
		for i, b := range dev.Bytes(theirs, size) {
			if b != 0xEE {
				t.Errorf("the new tenant's byte %d = %#x after the swap-in, want 0xee", i, b)
				return
			}
		}
	})
	run(t, env)

	// The same sizes through the copying calls on an identical device.
	env, dev = newTestDevice(t, true)
	env.Go(func(p *sim.Proc) {
		ctx := dev.CreateContext(p)
		ptr := ctx.MustMalloc(n)
		size, _ := ctx.SizeOf(ptr)
		host := dev.AllocHost(size, true)
		start := p.Now()
		ctx.MemcpyD2H(p, host, ptr, size)
		if err := ctx.Free(ptr); err != nil {
			t.Error(err)
			return
		}
		if got := p.Now().Sub(start); got != outCost {
			t.Errorf("SwapOut charged %v, MemcpyD2H+Free %v", outCost, got)
		}
		start = p.Now()
		ctx.MemcpyH2D(p, ctx.MustMalloc(size), host, size)
		if got := p.Now().Sub(start); got != inCost {
			t.Errorf("SwapIn charged %v, Malloc+MemcpyH2D %v", inCost, got)
		}
	})
	run(t, env)
}

// TestSwapMisuseErrors: swapping out what is not on the card (a wild
// pointer, a freed one, the same one twice), swapping in what is not an
// allocation off it (a wild pointer, one already placed) and swapping in a
// buffer that does not fill its allocation are errors, not panics, and
// leave the device as it was.
func TestSwapMisuseErrors(t *testing.T) {
	for _, functional := range []bool{true, false} {
		env, dev := newTestDevice(t, functional)
		env.Go(func(p *sim.Proc) {
			ctx := dev.CreateContext(p)
			if _, _, err := ctx.SwapOut(p, 0x4000); err == nil {
				t.Error("SwapOut of a wild pointer succeeded")
			}
			freed := ctx.MustMalloc(512)
			if err := ctx.Free(freed); err != nil {
				t.Error(err)
				return
			}
			if _, _, err := ctx.SwapOut(p, freed); err == nil {
				t.Error("SwapOut of a freed pointer succeeded")
			}
			ptr := ctx.MustMalloc(512)
			if err := ctx.SwapIn(p, ptr, nil); err == nil {
				t.Error("SwapIn of an allocation already on the card succeeded")
			}
			data, size, err := ctx.SwapOut(p, ptr)
			if err != nil || size != 512 || (data != nil) != functional {
				t.Errorf("functional=%v: SwapOut = %d bytes, size %d, err %v", functional, len(data), size, err)
				return
			}
			if _, _, err := ctx.SwapOut(p, ptr); err == nil {
				t.Error("second SwapOut of one pointer succeeded")
			}
			before := p.Now()
			if err := ctx.SwapIn(p, ptr, make([]byte, 100)); err == nil {
				t.Error("SwapIn attached 100 bytes as a 512-byte allocation")
			}
			if err := ctx.SwapIn(p, 0x4000, nil); err == nil {
				t.Error("SwapIn of a wild pointer succeeded")
			}
			if err := ctx.SwapIn(p, freed, nil); err == nil {
				t.Error("SwapIn of a freed pointer succeeded")
			}
			if dev.MemInUse() != 0 || p.Now() != before {
				t.Errorf("rejected SwapIn left %d bytes in use, charged %v", dev.MemInUse(), p.Now().Sub(before))
			}
			// A timing-only snapshot (nil data) restores as zeroed memory.
			if err := ctx.SwapIn(p, ptr, nil); err != nil {
				t.Error(err)
				return
			}
			for _, b := range dev.Bytes(ptr, 512) { // nil on a timing-only device
				if b != 0 {
					t.Error("SwapIn without data is not zeroed")
					return
				}
			}
		})
		run(t, env)
	}
}

// TestAddressOffTheCard: an address made off the card (what an adopted
// session is built against) holds no device memory and faults until SwapIn
// places it; Unplace takes a placement away, and its backing with it,
// without a transfer; Free releases an address on the card or off it; and
// no address is ever handed out twice.
func TestAddressOffTheCard(t *testing.T) {
	env, dev := newTestDevice(t, true)
	env.Go(func(p *sim.Proc) {
		ctx := dev.CreateContext(p)
		a, err := ctx.Address(1000)
		if err != nil {
			t.Error(err)
			return
		}
		if size, ok := ctx.SizeOf(a); !ok || size != 1024 || dev.MemInUse() != 0 {
			t.Errorf("Address: SizeOf = %d, %v, MemInUse %d; want 1024, true, 0", size, ok, dev.MemInUse())
		}
		if !panics(func() { dev.Bytes(a, 1) }) {
			t.Error("Bytes on an address off the card did not fault")
		}
		if err := ctx.SwapIn(p, a, nil); err != nil || dev.MemInUse() != 1024 {
			t.Errorf("SwapIn of a fresh address: %v, MemInUse %d", err, dev.MemInUse())
			return
		}
		dev.Bytes(a, 1024)[0] = 7
		start := p.Now()
		if data, err := ctx.Unplace(a); err != nil || len(data) != 1024 || data[0] != 7 {
			t.Errorf("Unplace = %d bytes (first %v), %v; want the placed backing", len(data), data[:min(len(data), 1)], err)
		}
		if dev.MemInUse() != 0 || p.Now() != start {
			t.Errorf("Unplace left %d bytes in use, took %v; want 0, 0",
				dev.MemInUse(), p.Now().Sub(start))
		}
		if !panics(func() { dev.Bytes(a, 1) }) {
			t.Error("Bytes on an unplaced address did not fault")
		}
		if _, err := ctx.Unplace(a); err == nil {
			t.Error("second Unplace of one address succeeded")
		}
		if err := ctx.Free(a); err != nil {
			t.Errorf("Free of an address off the card: %v", err)
		}
		if _, ok := ctx.SizeOf(a); ok {
			t.Error("SizeOf found a freed address")
		}
		if err := ctx.SwapIn(p, a, nil); err == nil {
			t.Error("SwapIn of a freed address succeeded")
		}
		if err := ctx.Free(a); err == nil {
			t.Error("second Free of one address succeeded")
		}
		b := ctx.MustMalloc(1000)
		if b == a || dev.Bytes(b, 1)[0] != 0 {
			t.Errorf("Malloc after the free handed out %#x (freed %#x), first byte %d; want a new, zeroed address",
				uint64(b), uint64(a), dev.Bytes(b, 1)[0])
		}
	})
	run(t, env)
}

// TestSwapOutRace: two processes evacuating one allocation both sleep
// through the transfer; the backing store goes to exactly one of them.
func TestSwapOutRace(t *testing.T) {
	env, dev := newTestDevice(t, true)
	won := 0
	env.Go(func(p *sim.Proc) {
		ctx := dev.CreateContext(p)
		ptr := ctx.MustMalloc(4096)
		for i := 0; i < 2; i++ {
			env.Go(func(p *sim.Proc) {
				if data, _, err := ctx.SwapOut(p, ptr); err == nil && len(data) == 4096 {
					won++
				} else if err == nil {
					t.Errorf("SwapOut succeeded with %d bytes", len(data))
				}
			})
		}
	})
	run(t, env)
	if won != 1 || dev.MemInUse() != 0 {
		t.Fatalf("%d swap-outs won the allocation, %d bytes still in use; want 1 and 0", won, dev.MemInUse())
	}
}

func TestSchedulerUtilization(t *testing.T) {
	env, dev := newTestDevice(t, false)
	env.Go(func(p *sim.Proc) {
		if utilization(dev.sched) != 0 {
			t.Error("idle utilization != 0")
		}
		c := dev.CreateContext(p)
		c.Acquire(p)
		defer c.Release()
		k := &cuda.Kernel{Name: "u", Grid: cuda.Dim(14), Block: cuda.Dim(128), CyclesPerThread: 1e6}
		done, err := startLaunch(c, p, k, 1)
		if err != nil {
			t.Error(err)
			return
		}
		p.Sleep(sim.Microsecond)
		if u := utilization(dev.sched); u <= 0 || u > 1 {
			t.Errorf("mid-run utilization = %v", u)
		}
		p.Wait(done)
		if utilization(dev.sched) != 0 {
			t.Error("utilization after completion != 0")
		}
	})
	run(t, env)
}

// utilization returns the fraction of SM block slots currently occupied.
func utilization(s *smScheduler) float64 {
	used, total := 0, 0
	for _, sm := range s.sms {
		used += sm.usedBlocks
		total += s.arch.MaxBlocksPerSM
	}
	if total == 0 {
		return 0
	}
	return float64(used) / float64(total)
}
