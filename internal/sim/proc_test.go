package sim

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// A sleep that nothing can interleave with advances the clock in place
// (WaitUntil). These are the cases where something can, or nearly can.

func TestSleepSkipTimerAtSameInstantRunsFirst(t *testing.T) {
	e := NewEnv()
	var log []string
	e.Go(func(p *Proc) {
		e.After(5, func() { log = append(log, "timer@"+e.Now().String()) })
		p.Sleep(5) // the timer is due at exactly the wake-up instant and was scheduled first
		log = append(log, "sleeper@"+e.Now().String())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"timer@5ns", "sleeper@5ns"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("order %v, want %v", log, want)
	}
	if got := e.Switches(); got != 2 {
		t.Fatalf("%d hand-offs, want 2: the sleep must park for the timer", got)
	}
}

func TestSleepSkipForbiddenByPendingSameInstantWork(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var log []string
	e.Go(func(p *Proc) {
		p.Wait(ev)
		log = append(log, "waiter@"+e.Now().String())
	})
	e.Go(func(p *Proc) {
		ev.Fire(nil) // queues the waiter at this instant; the calendar is empty
		p.Sleep(5)
		log = append(log, "firer@"+e.Now().String())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"waiter@0s", "firer@5ns"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("order %v, want %v", log, want)
	}
}

func TestSleepPastHorizonParksUntilNextRun(t *testing.T) {
	e := NewEnv()
	woke := Time(-1)
	e.Go(func(p *Proc) {
		p.Sleep(4) // within the horizon, nothing else to run: no switch
		p.Sleep(21)
		woke = e.Now()
	})
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 10 || woke != -1 {
		t.Fatalf("after RunUntil(10): now=%v woke=%v, want the clock at the horizon and the sleeper still parked", e.Now(), woke)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 25 || e.Switches() != 2 {
		t.Fatalf("woke at %v after %d hand-offs, want 25ns and 2", woke, e.Switches())
	}
}

func TestYieldOnEmptyQueueKeepsControl(t *testing.T) {
	e := NewEnv()
	e.After(3, func() {})
	steps := 0
	e.Go(func(p *Proc) {
		for ; steps < 4; steps++ {
			p.WaitUntil(p.Now())
			if e.Now() != 0 || e.Current() != p {
				t.Errorf("after yield %d: now=%v current=%v", steps, e.Now(), e.Current())
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 4 || e.Switches() != 1 || e.Now() != 3 {
		t.Fatalf("steps=%d hand-offs=%d now=%v, want 4, 1 and 3ns", steps, e.Switches(), e.Now())
	}
}

// Found by TestScheduleMatchesTable: an instant in the past means "now", and
// a calendar entry due now runs before the yielder continues.
func TestWaitUntilPastInstantIsAYield(t *testing.T) {
	e := NewEnv()
	var log []string
	e.Go(func(p *Proc) { p.Sleep(5); p.WaitUntil(2); log = append(log, "a") })
	e.Go(func(p *Proc) { p.Sleep(5); log = append(log, "b") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"b", "a"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("order %v, want %v", log, want)
	}
}

func TestFiredWaiterAndSleeperAtOneInstantKeepOrder(t *testing.T) {
	for _, sleeperFirst := range []bool{true, false} {
		e := NewEnv()
		ev := e.NewEvent()
		var log []string
		mark := func(s string) { log = append(log, s+"@"+e.Now().String()) }
		e.Go(func(p *Proc) { p.Wait(ev); mark("waiter") })
		sleeper := func(p *Proc) { p.Sleep(5); mark("sleeper") }
		firer := func(p *Proc) {
			p.Sleep(5)
			ev.Fire(nil)
			mark("fired")
			p.Sleep(1) // the waiter is queued at this instant: runs before this returns
			mark("firer")
		}
		want := []string{"fired@5ns", "sleeper@5ns", "waiter@5ns", "firer@6ns"}
		if sleeperFirst {
			e.Go(sleeper)
			e.Go(firer)
			want = []string{"sleeper@5ns", "fired@5ns", "waiter@5ns", "firer@6ns"}
		} else {
			e.Go(firer)
			e.Go(sleeper)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(log, want) {
			t.Errorf("sleeperFirst=%v: order %v, want %v", sleeperFirst, log, want)
		}
	}
}

// Workers are pooled process-wide: many short-lived Envs reuse the same few
// coroutines instead of stranding a set each.
func TestWorkersBoundedAcrossEnvs(t *testing.T) {
	const procs = 8
	start := runtime.NumGoroutine()
	for i := 0; i < 2000; i++ {
		e := NewEnv()
		for k := 0; k < procs; k++ {
			k := k
			e.Go(func(p *Proc) {
				p.Sleep(Duration(k)) // all eight are alive at once
				p.WaitUntil(p.Now())
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Workers other tests of this binary left on the free list were counted
	// in start already; the slack is for runtime and testing goroutines.
	if got := runtime.NumGoroutine(); got > start+procs+4 {
		t.Fatalf("%d goroutines after 2000 Envs x %d processes, started with %d: workers are not reused", got, procs, start)
	}
}

func TestWorkersSharedByConcurrentEnvs(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				e := NewEnv()
				sum := 0
				for k := 1; k <= 4; k++ {
					k := k
					e.Go(func(p *Proc) {
						p.Sleep(Duration(k))
						sum += k
						p.WaitUntil(p.Now())
					})
				}
				if err := e.Run(); err != nil || sum != 10 {
					t.Errorf("err=%v sum=%d", err, sum)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEnv()
	var dead *worker
	e.Go(func(p *Proc) {
		p.Sleep(1)
		p.WaitUntil(p.Now())
		dead = p.w
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v from Run, want the body's panic", r)
			}
		}()
		e.Run()
		t.Fatal("Run returned past a panicking process")
	}()
	if e.Current() != nil {
		t.Fatalf("Current() = %p after the panic unwound, want nil", e.Current())
	}
	workers.Lock()
	for _, w := range workers.free {
		if w == dead {
			t.Error("the panicked process's worker went back on the free list")
		}
	}
	workers.Unlock()
	ran := false
	e.Go(func(p *Proc) { p.Sleep(1); ran = true })
	if err := e.Run(); err != nil || !ran {
		t.Fatalf("the next process on the same Env: err=%v ran=%v", err, ran)
	}
}

// A t.FailNow inside a process body is a runtime.Goexit on the worker; it
// must end the goroutine that called Run, not leave it waiting for a process
// that will never park.
func TestProcGoexitEndsRunCaller(t *testing.T) {
	e := NewEnv()
	done := make(chan bool, 1)
	go func() {
		returned := false
		defer func() { done <- returned }()
		e.Go(func(p *Proc) {
			p.Sleep(1)
			runtime.Goexit()
		})
		e.Run()
		returned = true
	}()
	select {
	case returned := <-done:
		if returned {
			t.Fatal("Run returned normally past a Goexit in a process body")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung on a process that called Goexit")
	}
	ran := false
	e.Go(func(p *Proc) { ran = true })
	if err := e.Run(); err != nil || !ran {
		t.Fatalf("the next process on the same Env: err=%v ran=%v", err, ran)
	}
}

// TestTransientProcessAllocatesNothing: once one process has finished, Go
// reuses it, so spawning and running a trivial transient process — the
// daemon's restore process, its cold-work process — allocates nothing.
func TestTransientProcessAllocatesNothing(t *testing.T) {
	e := NewEnv()
	ran := 0
	body := func(*Proc) { ran++ }
	spawn := func() {
		e.Go(body)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	spawn() // warm-up: the first Proc, its worker and the queue's backing
	if got := testing.AllocsPerRun(100, spawn); got != 0 {
		t.Fatalf("%v allocations per transient process, want 0", got)
	}
	if ran != 102 {
		t.Fatalf("body ran %d times, want 102", ran)
	}
}

// TestReusedProcCarriesNothingOver: a reused Proc is no daemon, so blocking
// forever in it is a deadlock again.
func TestReusedProcCarriesNothingOver(t *testing.T) {
	e := NewEnv()
	first := e.Go(func(p *Proc) { p.Daemonize() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	second := e.Go(func(p *Proc) {
		p.Wait(e.NewEvent()) // never fires
	})
	if second != first {
		t.Fatal("Go did not reuse the finished process")
	}
	if err := e.Run(); err == nil {
		t.Fatal("a process blocked forever in a reused daemon's Proc is not a deadlock")
	}
}
