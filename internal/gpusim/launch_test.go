package gpusim

import (
	"fmt"
	"strings"
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/trace"
)

// startLaunch is Launch without the wait: it dispatches k at weight w and
// returns the completion event, so one process can keep several kernels in
// flight. Nobody recycles the record; it is garbage once the test drops it.
func startLaunch(c *Context, p *sim.Proc, k *cuda.Kernel, w int) (*sim.Event, error) {
	ls, err := c.dispatch(p, k, w)
	if err != nil {
		return nil, err
	}
	return ls.done, nil
}

// TestLaunchReturnsAbortFault: a hang that aborts the kernel in flight is
// what Launch returns, not a silent success.
func TestLaunchReturnsAbortFault(t *testing.T) {
	env, dev := newTestDevice(t, false)
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		c.Acquire(p)
		defer c.Release()
		env.Go(func(q *sim.Proc) {
			q.Sleep(sim.Millisecond) // well inside the kernel's runtime
			dev.InjectFault(XidHang)
		})
		k := &cuda.Kernel{Name: "long", Grid: cuda.Dim(28), Block: cuda.Dim(1024), CyclesPerThread: 1e6}
		err := c.Launch(p, k, 1)
		if fe, ok := IsFault(err); !ok || fe.Kind != XidHang {
			t.Errorf("Launch of a kernel a hang aborted returned %v, want an xid hang FaultError", err)
		}
	})
	run(t, env)
}

// TestRecycledLaunchRecordCarriesNothingOver drives launches from several
// processes through a two-kernel window with a pending queue, a weight
// preemption and a memory-floored kernel, so launch records are reused
// across every way a launch can complete. Each Launch must return at its
// own kernel's completion instant (the span the scheduler traces when it
// completes the kernel). A hang then aborts one generation in flight, and
// every launcher gets its *FaultError. No record on the free list may still
// name a kernel or a context, or hold a fired event.
func TestRecycledLaunchRecordCarriesNothingOver(t *testing.T) {
	arch := fermi.TeslaC2070()
	arch.MaxConcurrentKernels = 2
	env := sim.NewEnv()
	tr := trace.New()
	dev := MustNew(env, Config{Arch: arch, Tracer: tr})
	const (
		light  = 3 // weight-1 processes, two waves per kernel
		rounds = 4
	)
	returned := map[string]sim.Time{}
	var faults, procs int
	maxPending := 0
	phase2 := env.NewEvent()
	launch := func(p *sim.Proc, c *Context, k *cuda.Kernel, w int) error {
		if len(dev.sched.pending) > maxPending {
			maxPending = len(dev.sched.pending)
		}
		err := c.Launch(p, k, w)
		if err == nil {
			returned[k.Name] = p.Now()
		}
		return err
	}
	// The second generation: one long kernel per process, aborted by a hang.
	abortable := func(p *sim.Proc, c *Context, name string) {
		p.Wait(phase2)
		k := &cuda.Kernel{Name: name, Grid: cuda.Dim(168), Block: cuda.Dim(256), CyclesPerThread: 1e6}
		if _, ok := IsFault(launch(p, c, k, 1)); ok {
			faults++
		}
	}
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		c.Acquire(p)
		for i := 0; i < light; i++ {
			i := i
			procs++
			env.Go(func(p *sim.Proc) {
				for r := 0; r < rounds; r++ {
					k := batchKernel(fmt.Sprintf("light%d.%d", i, r), 168, float64(5e3*(i+1)+1e3*r))
					if err := launch(p, c, k, 1); err != nil {
						t.Error(err)
					}
				}
				abortable(p, c, fmt.Sprintf("light%d.abort", i))
			})
		}
		procs++
		env.Go(func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				p.Sleep(200 * sim.Microsecond)
				if err := launch(p, c, batchKernel(fmt.Sprintf("heavy.%d", r), 84, 3e4), 4); err != nil {
					t.Error(err)
				}
			}
			abortable(p, c, "heavy.abort")
		})
		procs++
		env.Go(func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				// One block of trivial work moving 288 MB: done by its
				// memory floor (2 ms at 144 GB/s), not by its blocks.
				k := &cuda.Kernel{Name: fmt.Sprintf("floored.%d", r), Grid: cuda.Dim(1), Block: cuda.Dim(32),
					CyclesPerThread: 1, MemBytesPerThread: 9e6}
				if err := launch(p, c, k, 1); err != nil {
					t.Error(err)
				}
			}
			abortable(p, c, "floored.abort")
		})
		p.Sleep(50 * sim.Millisecond) // every first-generation launch has returned
		phase2.Fire(nil)
		p.Sleep(sim.Millisecond)
		dev.InjectFault(XidHang)
		c.Release()
	})
	run(t, env)

	if maxPending == 0 || dev.Preemptions() == 0 {
		t.Fatalf("pending queue peaked at %d, %d preemptions: the run did not reach both", maxPending, dev.Preemptions())
	}
	floor := sim.Duration(32 * 9e6 / arch.MemBandwidth * 1e9)
	floored := 0
	spans := tr.LaneSpans("sm")
	if len(spans) != (light+2)*rounds {
		t.Fatalf("%d kernels completed, want %d", len(spans), (light+2)*rounds)
	}
	for _, s := range spans {
		name := s.Label[strings.LastIndex(s.Label, " ")+1:]
		if got, ok := returned[name]; !ok || got != s.End {
			t.Errorf("kernel %s completed at %v; its Launch returned at %v (returned: %v)", name, s.End, got, ok)
		}
		if strings.HasPrefix(name, "floored.") && s.Duration() == floor {
			floored++
		}
	}
	if floored == 0 {
		t.Error("no floored kernel completed at its memory floor")
	}
	if faults != procs {
		t.Errorf("%d of %d launchers in the aborted generation got a FaultError", faults, procs)
	}
	free := dev.sched.launchFree
	if len(free) == 0 || len(free) > procs {
		t.Errorf("%d records on the free list after %d launches from %d processes, want 1..%d",
			len(free), (light+2)*(rounds+1), procs, procs)
	}
	for i, ls := range free {
		if ls.k != nil || ls.ctx != nil || ls.perSM != nil {
			t.Errorf("free record %d still holds kernel %v, context %v, perSM %v",
				i, ls.k, ls.ctx, ls.perSM)
		}
	}
}

// TestHangAbortsAKernelOnItsMemoryFloor: a kernel whose blocks are done but
// whose memory-bandwidth floor has not passed is still in flight, so a hang
// in that window fails its Launch with the *FaultError, its body never runs
// and it earns no KernelsRun credit. The floor's timer cannot be cancelled:
// when it fires it must not complete the launch that ran next.
func TestHangAbortsAKernelOnItsMemoryFloor(t *testing.T) {
	env, dev := newTestDevice(t, true)
	arch := dev.Arch()
	// One block of trivial work moving 288 MB: done by its floor, 2 ms at
	// 144 GB/s, long after its block.
	floor := sim.Duration(32 * 9e6 / arch.MemBandwidth * 1e9)
	ran := map[string]int{}
	floored := func(name string) *cuda.Kernel {
		return &cuda.Kernel{Name: name, Grid: cuda.Dim(1), Block: cuda.Dim(32), CyclesPerThread: 1,
			MemBytesPerThread: 9e6, Func: func(*cuda.BlockCtx) { ran[name]++ }}
	}
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		c.Acquire(p)
		defer c.Release()
		env.Go(func(q *sim.Proc) {
			q.Sleep(floor / 2) // the block is long done, the floor is not
			dev.InjectFault(XidHang)
			// The device comes back, and a second floored kernel runs while
			// the first one's floor timer is still armed.
			dev.fault.Store(int32(FaultNone))
			start := q.Now()
			if err := c.Launch(q, floored("next"), 1); err != nil {
				t.Errorf("Launch after the device came back: %v", err)
			}
			if got, want := q.Now().Sub(start), arch.KernelLaunchOverhead+floor; got != want {
				t.Errorf("the next floored kernel returned after %v, want its own floor's %v", got, want)
			}
		})
		start := p.Now()
		err := c.Launch(p, floored("first"), 1)
		if fe, ok := IsFault(err); !ok || fe.Kind != XidHang {
			t.Errorf("Launch of a kernel a hang aborted on its memory floor returned %v, want an xid hang FaultError", err)
		}
		if got := p.Now().Sub(start); got != floor/2 {
			t.Errorf("the aborted Launch returned after %v, want the hang's %v", got, floor/2)
		}
	})
	run(t, env)
	if ran["first"] != 0 || ran["next"] != 1 {
		t.Errorf("bodies ran %v, want the aborted kernel's never and the next one's once", ran)
	}
	if dev.KernelsRun != 1 {
		t.Errorf("KernelsRun = %d, want 1: an aborted kernel earns no credit", dev.KernelsRun)
	}
}
