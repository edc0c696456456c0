package gpusim

import (
	"errors"
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/sim"
)

// TestLaunchSchedulesOneEventPerWave: the scheduler arms one completion
// timer per wave, whatever the SM count — a 1 024-block launch that takes
// 74 waves on 14 SMs costs the calendar about 74 events, not 74 x 14.
func TestLaunchSchedulesOneEventPerWave(t *testing.T) {
	env, dev := newTestDevice(t, false)
	k := &cuda.Kernel{
		Name: "vecadd-shaped", Grid: cuda.Dim(1024), Block: cuda.Dim(1024),
		RegsPerThread: 8, CyclesPerThread: 0.4,
	}
	occ, err := dev.arch.Occupancy(k.Resources())
	if err != nil {
		t.Fatal(err)
	}
	perWave := occ.BlocksPerSM * dev.arch.SMs
	waves := uint64((k.Blocks() + perWave - 1) / perWave)
	var events uint64
	env.Go(func(p *sim.Proc) {
		c := dev.CreateContext(p)
		c.Acquire(p)
		defer c.Release()
		before := env.Scheduled()
		if err := c.Launch(p, k, 1); err != nil {
			t.Error(err)
		}
		events = env.Scheduled() - before
	})
	run(t, env)
	// One timer per wave, plus the launch's own sleeps.
	if events < waves || events > waves+4 {
		t.Fatalf("a %d-wave launch on %d SMs scheduled %d calendar events, want %d..%d",
			waves, dev.arch.SMs, events, waves, waves+4)
	}
}

// TestOneTimerSameSchedule pins the virtual-time schedule of a contended
// device to the values the per-SM-timer scheduler produced (recorded from
// the commit before the timers were merged): two batch kernels and a
// heavier late arrival through a two-slot window, with wave-boundary
// preemption; and an abortAll with a timer armed.
func TestOneTimerSameSchedule(t *testing.T) {
	arch := fermi.TeslaC2070()
	arch.MaxConcurrentKernels = 2
	b1 := batchKernel("batch1", 168, 1e5)
	b2 := batchKernel("batch2", 200, 7e4)
	hot := &cuda.Kernel{
		Name: "hot", Grid: cuda.Dim(arch.SMs), Block: cuda.Dim(128),
		CyclesPerThread: 1e5,
	}
	makespan, each, dev := launchQoS(t, Config{Arch: arch}, []int{1, 2, 8}, b1, b2, hot)
	if dev.Preemptions() == 0 {
		t.Error("the scenario no longer preempts at a wave boundary")
	}
	if want := []sim.Duration{16772221, 15137439, 6093958}; makespan != want[0] ||
		each[0] != want[0] || each[1] != want[1] || each[2] != want[2] {
		t.Errorf("completions %v (makespan %d), want %v", each, makespan, want)
	}

	// abortAll with a timer armed: the victim's waiter sees the error at
	// the abort instant, and the stale timer — due in the middle of a wave
	// of the next kernel — neither moves that kernel's completion nor costs
	// it a calendar event.
	victim := batchKernel("victim", 336, 1e5)
	next := batchKernel("next", 168, 6e4)
	errAbort := errors.New("abort")
	runNext := func(abort bool) (took sim.Duration, events uint64) {
		env := sim.NewEnv()
		dev := MustNew(env, Config{Arch: fermi.TeslaC2070()})
		env.Go(func(p *sim.Proc) {
			c := dev.CreateContext(p)
			c.Acquire(p)
			defer c.Release()
			if abort {
				ev, err := startLaunch(c, p, victim, 1)
				if err != nil {
					t.Error(err)
					return
				}
				p.Sleep(100 * sim.Microsecond)
				dev.sched.abortAll(errAbort)
				if got := p.Wait(ev); got != errAbort {
					t.Errorf("aborted kernel's waiter got %v, want the abort error", got)
				}
			}
			start, before := p.Now(), env.Scheduled()
			if err := c.Launch(p, next, 1); err != nil {
				t.Error(err)
			}
			took, events = p.Now().Sub(start), env.Scheduled()-before
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return took, events
	}
	solo, soloEvents := runNext(false)
	after, afterEvents := runNext(true)
	if solo != 5015696 {
		t.Errorf("the kernel alone took %d, want 5015696", solo)
	}
	if after != solo || afterEvents != soloEvents {
		t.Errorf("after an abort the kernel took %d over %d events; alone %d over %d: the aborted launch's timer still acts",
			after, afterEvents, solo, soloEvents)
	}
}
